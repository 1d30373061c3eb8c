// Package sweep defines the design-space campaign shared by cmd/sweep
// and the distributed coordinator cmd/campaignd: the same Space
// expansion produces the same plan, and the same CSV emitter renders
// the same bytes, so a campaign merged from remote workers is
// byte-identical to a single-process sweep by construction rather than
// by convention.
//
// The package splits the campaign into three composable pieces:
//
//   - Space expands the swept axes into an ordered plan plus Row
//     metadata tying each CSV row to its plan indexes (Build), and
//     Expand does the same for an explicit row list;
//   - Evaluator derives each row's Metrics (normalised time, MPKI,
//     area/energy ratios) from raw simulation results;
//   - CSV renders rows — batch (Row/WriteRow) or streaming
//     (EmitStream), with optional backend and phase columns and a
//     metric-adjust hook the auto-refine pipeline (internal/refine)
//     uses to apply its calibration fit.
//
// Flags (RegisterFlags) keeps the two drivers' design-space flag sets
// identical, and Maint is their shared -storeop maintenance path.
package sweep

import (
	"fmt"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
)

// Space enumerates the swept design-space axes. The worker-core count
// and everything else that affects simulation results lives in the
// runner's campaign options, not here.
type Space struct {
	// Benches are the benchmark names, one CSV row group per name.
	Benches []string
	// CPCs, SizesKB, LineBuffers and Buses are the shared-I-cache axes;
	// their cross product (minus invalid combinations) is the swept set.
	CPCs, SizesKB, LineBuffers, Buses []int
	// Backend stamps every swept point (and its baseline) with a
	// simulation-backend override. Empty keeps the campaign default;
	// the points carry the name explicitly, so a distributed worker
	// executes the coordinator's choice rather than its own default.
	Backend string
}

// Row ties one CSV output row to its plan indexes: the shared design
// point it reports and the private baseline it is normalised against.
// Backend records which simulation backend produced the row, for the
// optional backend CSV column; Phase labels which campaign phase it
// belongs to ("triage", "refine") for the optional phase column of
// auto-refine output, and is empty for plain sweeps.
type Row struct {
	Bench             string
	CPC, KB, LB, Bus  int
	BaseIdx, PointIdx int
	Backend           string
	Phase             string
}

// Build declares the full campaign on r in CSV emission order — per
// benchmark one private baseline followed by every valid shared point
// — and returns the plan alongside the row metadata that maps plan
// results back to CSV rows. Invalid combinations (cpc < 2, worker
// count not divisible by cpc, configurations the simulator rejects)
// are skipped exactly as cmd/sweep always has.
func (sp Space) Build(r *experiments.Runner) (*experiments.Plan, []Row) {
	b := builder{plan: r.Plan(), opts: r.Options()}
	for _, bench := range sp.Benches {
		base := b.baseline(bench, sp.Backend)
		for _, cpc := range sp.CPCs {
			if !b.validCPC(cpc) {
				continue
			}
			for _, kb := range sp.SizesKB {
				for _, lb := range sp.LineBuffers {
					for _, bus := range sp.Buses {
						// A rejected combination is skipped, as documented above.
						_ = b.row(Row{Bench: bench, CPC: cpc, KB: kb, LB: lb, Bus: bus, BaseIdx: base, Backend: sp.Backend})
					}
				}
			}
		}
	}
	return b.plan, b.rows
}

// Expand declares an explicit row list on r in the given order, each
// benchmark's baseline at its first appearance, every point on backend
// unless its row's Backend overrides it; the rows come back with their
// plan indexes and resolved backends. A row Build would skip is an
// error here: dropping it would break the merged CSV's byte-identity.
func Expand(r *experiments.Runner, backend string, rows []Row) (*experiments.Plan, []Row, error) {
	b := builder{plan: r.Plan(), opts: r.Options()}
	baseIdx := map[string]int{}
	for k, m := range rows {
		if m.Bench == "" {
			return nil, nil, fmt.Errorf("row %d: empty benchmark", k)
		}
		base, ok := baseIdx[m.Bench]
		if !ok {
			base = b.baseline(m.Bench, backend)
			baseIdx[m.Bench] = base
		}
		m.BaseIdx = base
		if m.Backend == "" {
			m.Backend = backend
		}
		if err := b.row(m); err != nil {
			return nil, nil, fmt.Errorf("row %d: %w", k, err)
		}
	}
	return b.plan, b.rows, nil
}

// builder lays out a campaign's plan and rows for both Build and
// Expand, which differ only in what they do with a rejected row.
type builder struct {
	plan *experiments.Plan
	opts experiments.Options
	rows []Row
}

// baseline appends bench's private baseline and returns its index.
func (b *builder) baseline(bench, backend string) int {
	return b.plan.AddPoint(experiments.Point{
		Bench: bench, Cfg: BaseConfig(b.opts.Workers), Backend: backend,
	})
}

// validCPC reports whether the worker count splits into clusters of
// cpc cores.
func (b *builder) validCPC(cpc int) bool {
	return cpc >= 2 && b.opts.Workers%cpc == 0
}

// row appends the shared point m describes on m.Backend, normalised
// against the baseline at m.BaseIdx, and records its Row, labelled
// with the backend the runner resolves it to.
func (b *builder) row(m Row) error {
	if !b.validCPC(m.CPC) {
		return fmt.Errorf("cpc %d invalid for %d workers", m.CPC, b.opts.Workers)
	}
	cfg := PointConfig(b.opts.Workers, m.CPC, m.KB, m.LB, m.Bus)
	if err := cfg.Validate(); err != nil {
		return err
	}
	pt := experiments.Point{Bench: m.Bench, Cfg: cfg, Backend: m.Backend}
	m.PointIdx = b.plan.AddPoint(pt)
	m.Backend = b.opts.PointBackend(pt)
	b.rows = append(b.rows, m)
	return nil
}

// BaseConfig is the private-I-cache baseline every row is normalised
// against.
func BaseConfig(workers int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// PointConfig is the worker-shared configuration one Row's axes
// describe — the single place the axes-to-Config mapping lives, so
// tooling that rebuilds a row's design point from its CSV coordinates
// (the auto-refine frontier re-plan) cannot drift from Build.
func PointConfig(workers, cpc, kb, lb, bus int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	cfg.Organization = core.OrgWorkerShared
	cfg.CPC = cpc
	cfg.ICache.SizeBytes = kb << 10
	cfg.LineBuffers = lb
	cfg.Buses = bus
	return cfg
}

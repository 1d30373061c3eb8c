package main

// fig7-detailed: the Fig 7 space swept locally on the cycle-level
// simulator, one fresh Runner per campaign, no store. The simulator
// does nearly all the work, so this is where a simulator or frontend
// change shows — and only here.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"time"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/simreport"
	"sharedicache/internal/sweep"
	"sharedicache/internal/synth"
	"sharedicache/internal/trace"
	"sharedicache/internal/tracing"
)

// fig7Space is cpc 2,4,8 × 16,32 KB × 4 line buffers × 1,2 buses over
// benchmarks spanning the paper's regimes: 65 points with baselines.
var fig7Space = sweep.Space{
	Benches:     []string{"FT", "UA", "nab", "CoEVP", "LULESH"},
	CPCs:        []int{2, 4, 8},
	SizesKB:     []int{16, 32},
	LineBuffers: []int{4},
	Buses:       []int{1, 2},
}

// fig7CSVDigest is the SHA-256 of the sweep's CSV under cmd/sweep's
// defaults (8 workers, 80k instructions, synthesis seed 1, steady-state
// caches) — the bytes `sweep -bench FT,UA,nab,CoEVP,LULESH` prints.
// The workload seed does not enter the CSV.
const fig7CSVDigest = "008c12f9da3d33a34434fa62f49ceb130241eacf70a882ba0b90443b55f8195f"

// instructions is the default master-instruction budget of cmd/sweep
// and cmd/campaignd.
const instructions = 80_000

// fig7SetupReps is how many extra times a run builds the Runner and
// plan, so setup_s is a median over several set-ups.
const fig7SetupReps = 199

// tracedBackendName is the backend the traced run registers: the
// detailed backend's steps, each wrapped in a span from this file.
const tracedBackendName = "perfbench-traced-detailed"

func fig7Options(backend string) experiments.Options {
	o := experiments.DefaultOptions()
	o.Instructions = instructions
	o.Parallelism = runtime.NumCPU()
	o.Backend = backend
	return o
}

// campaignRun is one measured campaign.
type campaignRun struct {
	setup, wall float64
	points      []experiments.Point
	results     []*core.Result
	csv         []byte
}

// fig7Campaign builds a fresh Runner and plan (the set-up) and sweeps
// the space, from the first point submitted to the rendered CSV.
func fig7Campaign(ctx context.Context, tr *tracing.Tracer, backend string) (campaignRun, error) {
	var c campaignRun
	start := time.Now()
	r, err := experiments.NewRunner(fig7Options(backend))
	if err != nil {
		return c, err
	}
	_, span := tr.Start(ctx, "sweep.build")
	plan, rows := fig7Space.Build(r)
	span.End()
	c.setup = time.Since(start).Seconds()

	start = time.Now()
	runCtx, span := tr.Start(ctx, "experiments.runall")
	c.results, err = plan.RunAll(runCtx)
	span.End()
	if err != nil {
		return c, err
	}
	c.csv, err = renderCSV(ctx, tr, r.Options().Workers, rows, c.results)
	c.wall = time.Since(start).Seconds()
	c.points = plan.Points()
	return c, err
}

// renderCSV writes the sweep CSV for rows over plan-ordered results.
func renderCSV(ctx context.Context, tr *tracing.Tracer, workers int, rows []sweep.Row, results []*core.Result) ([]byte, error) {
	_, span := tr.Start(ctx, "sweep.csv")
	defer span.End()
	var buf bytes.Buffer
	out := sweep.NewCSV(&buf, workers)
	if err := out.Header(); err != nil {
		return nil, err
	}
	for _, m := range rows {
		if err := out.Row(m, results[m.BaseIdx], results[m.PointIdx]); err != nil {
			return nil, err
		}
	}
	if err := out.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func runFig7(ctx context.Context, cfg config) (*report, error) {
	rep := &report{metrics: newMetricSet()}
	var setups []float64
	for i := 0; i < fig7SetupReps; i++ {
		start := time.Now()
		r, err := experiments.NewRunner(fig7Options(""))
		if err != nil {
			return nil, err
		}
		fig7Space.Build(r)
		setups = append(setups, time.Since(start).Seconds())
	}

	var layer *tracedDetailed
	if cfg.tr != nil {
		layer = registerTracedBackend(cfg.tr)
	}
	// Each campaign is checked as soon as it is measured and then
	// dropped, except the first untraced one, which the reference check
	// needs, so the live heap does not grow with the run's length.
	var plain, traced []campaignRun
	var mips []float64
	var first campaignRun
	conserved, total := 0, 0
	deadline := time.Now().Add(cfg.seconds)
	for len(plain) == 0 || (cfg.tr != nil && len(traced) == 0) || time.Now().Before(deadline) {
		backend, tr := "", (*tracing.Tracer)(nil)
		if cfg.tr != nil && len(traced) < len(plain) {
			backend, tr = tracedBackendName, cfg.tr
		}
		// Every campaign starts from a collected heap.
		runtime.GC()
		c, err := fig7Campaign(ctx, tr, backend)
		if err != nil {
			return nil, err
		}
		n := len(plain) + len(traced) + 1
		fmt.Fprintf(cfg.log, "campaign %d: %d points in %.3fs (traced=%v)\n", n, len(c.points), c.wall, tr != nil)

		// Output checks, outside the timed region.
		got := digest(c.csv)
		rep.check(fmt.Sprintf("fig7 csv digest (campaign %d)", n), got == fig7CSVDigest, "sha256 %s", got)
		var instr uint64
		for _, res := range c.results {
			instr += res.TotalInstructions()
			if r := simreport.FromResult("", "", "", true, res); r.StackTotal() == r.CoreCycles() {
				conserved++
			}
		}
		total += len(c.results)

		setups = append(setups, c.setup)
		rep.attempted += len(c.points)
		if tr != nil {
			rep.wall += c.setup + c.wall
		} else if first.results == nil {
			first = c
		}
		c.results, c.csv = nil, nil
		if tr != nil {
			traced = append(traced, c)
		} else {
			plain = append(plain, c)
			mips = append(mips, float64(instr)/1e6/c.wall)
		}
	}

	m := rep.metrics
	m.setN("setup_s", median(setups), len(setups))
	var pps, walls []float64
	for _, c := range plain {
		pps = append(pps, float64(len(c.points))/c.wall)
		walls = append(walls, c.wall)
	}
	m.setN("points_per_s", median(pps), len(pps))
	m.setN("campaign_p50_s", median(walls), len(walls))
	m.setN("sim_minstr_per_s", median(mips), len(mips))
	if layer != nil {
		var tpps []float64
		for _, c := range traced {
			tpps = append(tpps, float64(len(c.points))/c.wall)
		}
		m.set("trace.overhead_frac", 1-median(tpps)/median(pps))
		layer.report(m)
	}

	rep.check("fig7 StackTotal == CoreCycles", conserved == total, "%d/%d points", conserved, total)
	if err := checkReference(rep, cfg.seed, first); err != nil {
		return nil, err
	}
	return rep, nil
}

// fig7RefSample is how many seeded points a run re-simulates on the
// reference (no skip-ahead) loop.
const fig7RefSample = 2

// checkReference re-runs a seeded sample of the campaign's points
// through Simulator.RunReference and requires a deep-equal Result.
func checkReference(rep *report, seed uint64, c campaignRun) error {
	rng := rand.New(rand.NewPCG(seed, 0x666967375f726566))
	opts := fig7Options("")
	for _, i := range rng.Perm(len(c.points))[:fig7RefSample] {
		pt := c.points[i]
		p, ok := synth.ProfileByName(pt.Bench)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", pt.Bench)
		}
		w, err := synth.New(p, synth.Config{Workers: opts.Workers, MasterInstructions: opts.Instructions, Seed: opts.Seed})
		if err != nil {
			return err
		}
		sim, err := newSim(w, pt.Cfg)
		if err != nil {
			return err
		}
		ic, l2 := warmSets(w, pt.Cfg)
		sim.Prewarm(ic, l2)
		ref, err := sim.RunReference()
		if err != nil {
			return err
		}
		rep.check(fmt.Sprintf("fig7 RunReference == Run (point %d, %s cpc=%d)", i, pt.Bench, pt.Cfg.CPC),
			reflect.DeepEqual(ref, c.results[i]), "%d cycles", ref.Cycles)
	}
	return nil
}

func newSim(w *synth.Workload, cfg core.Config) (*core.Simulator, error) {
	srcs := make([]trace.Source, w.NumThreads())
	for i := range srcs {
		srcs[i] = w.Source(i)
	}
	return core.New(cfg, srcs)
}

// warmSets is the per-thread steady-state line sets for cfg's geometry.
func warmSets(w *synth.Workload, cfg core.Config) (ic, l2 [][]uint64) {
	n := w.NumThreads()
	ic, l2 = make([][]uint64, n), make([][]uint64, n)
	for i := 0; i < n; i++ {
		ic[i] = w.WarmLines(i, cfg.ICache.LineBytes)
		l2[i] = w.L2WarmLines(i, cfg.Mem.L2.LineBytes)
	}
	return ic, l2
}

// tracedDetailed collects the traced backend's per-call timings.
type tracedDetailed struct {
	tr                         *tracing.Tracer
	synthNew, synthWarm        samples
	prewarm, coreRun           samples
	mu                         sync.Mutex
	cycles, instr, busy, stack uint64
}

var registerOnce sync.Once

// registerTracedBackend registers, once per process, a backend that
// performs the detailed backend's steps — synthesis and warm sets
// memoised per benchmark, then core.New, Prewarm and Run per point —
// with a span and a timing around each call.
func registerTracedBackend(tr *tracing.Tracer) *tracedDetailed {
	t := &tracedDetailed{tr: tr}
	registerOnce.Do(func() {
		experiments.RegisterBackend(tracedBackendName, func(opts experiments.Options) (experiments.Backend, error) {
			return &tracedBackend{t: t, opts: opts, synths: map[string]*memo{}}, nil
		})
	})
	return t
}

func (t *tracedDetailed) report(m metricSet) {
	for name, s := range map[string]*samples{"synth.new_s": &t.synthNew, "synth.warm_s": &t.synthWarm, "core.prewarm_s": &t.prewarm} {
		xs := s.values()
		m.setN(name, median(xs), len(xs))
	}
	runs := t.coreRun.values()
	m.setN("core.run_s", median(runs), len(runs))
	if p, v, ok := tailPercentile(runs); ok {
		m.setN("core.run_tail_s", v, len(runs))
		m.set("core.run_tail_pct", float64(p))
	}
	m.set("core.run.count", float64(len(runs)))
	var total float64
	for _, d := range runs {
		total += d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m.set("core.ns_per_cycle", total*1e9/float64(t.cycles))
	m.set("core.ns_per_instr", total*1e9/float64(t.instr))
	m.set("core.busy_share", float64(t.busy)/float64(t.stack))
}

// memo is one benchmark's synthesised workload and warm sets. The
// detailed backend keys warm sets by line sizes too; they do not vary
// in the Fig 7 space.
type memo struct {
	once   sync.Once
	w      *synth.Workload
	ic, l2 [][]uint64
	err    error
}

type tracedBackend struct {
	t    *tracedDetailed
	opts experiments.Options

	mu     sync.Mutex
	synths map[string]*memo
}

func (b *tracedBackend) Name() string        { return tracedBackendName }
func (b *tracedBackend) Fingerprint() string { return tracedBackendName + "/v1" }

// timed runs fn under a span named name and, when into is non-nil,
// books its duration there.
func (t *tracedDetailed) timed(ctx context.Context, name string, into *samples, fn func()) {
	_, span := t.tr.Start(ctx, name)
	start := time.Now()
	fn()
	if into != nil {
		into.add(time.Since(start).Seconds())
	}
	span.End()
}

func (b *tracedBackend) Execute(ctx context.Context, bench string, cfg core.Config, prewarm bool) (*core.Result, error) {
	t := b.t
	b.mu.Lock()
	e := b.synths[bench]
	if e == nil {
		e = &memo{}
		b.synths[bench] = e
	}
	b.mu.Unlock()
	e.once.Do(func() {
		p, ok := synth.ProfileByName(bench)
		if !ok {
			e.err = fmt.Errorf("unknown benchmark %q", bench)
			return
		}
		t.timed(ctx, "synth.new", &t.synthNew, func() {
			e.w, e.err = synth.New(p, synth.Config{Workers: b.opts.Workers, MasterInstructions: b.opts.Instructions, Seed: b.opts.Seed})
		})
		if e.err == nil {
			t.timed(ctx, "synth.warm", &t.synthWarm, func() { e.ic, e.l2 = warmSets(e.w, cfg) })
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	var sim *core.Simulator
	var err error
	t.timed(ctx, "core.new", nil, func() { sim, err = newSim(e.w, cfg) })
	if err != nil {
		return nil, err
	}
	if prewarm {
		t.timed(ctx, "core.prewarm", &t.prewarm, func() { sim.Prewarm(e.ic, e.l2) })
	}
	var res *core.Result
	t.timed(ctx, "core.run", &t.coreRun, func() { res, err = sim.Run() })
	if err != nil {
		return nil, err
	}
	var busy, stack uint64
	for _, c := range res.Cores {
		busy += c.Stack.Busy
		stack += c.Stack.Total()
	}
	t.mu.Lock()
	t.cycles += res.Cycles
	t.instr += res.TotalInstructions()
	t.busy += busy
	t.stack += stack
	t.mu.Unlock()
	return res, nil
}

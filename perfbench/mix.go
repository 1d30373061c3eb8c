package main

// The service workload's input: a campaign mix and an open-loop
// arrival schedule, both a pure function of the workload seed. The
// arrival times come from synth.SynthesizeArrivals — a steady phase at
// a fixed rate, then an ArrivalSweep ramp — and each arrival's design
// point anchors one small campaign around it.

import (
	"math/rand/v2"
	"time"

	"sharedicache/internal/campaignd"
	"sharedicache/internal/experiments"
	"sharedicache/internal/sweep"
	"sharedicache/internal/synth"
)

// Schedule shape. The steady rate sits below the knee measured on a
// 2-CPU host; the ramp climbs past it.
const (
	steadyRPS   = 20.0
	rampStart   = 50.0
	rampStep    = 50.0
	rampTarget  = 500.0
	rampSlot    = time.Second
	steadyShare = 0.5 // of the run's seconds; the ramp gets the rest
)

// planned is one scheduled campaign.
type planned struct {
	due   time.Duration // offset from the start of the schedule
	ramp  bool
	rung  int     // ramp slot index
	rate  float64 // offered rate of the campaign's phase or rung
	space sweep.Space
}

// schedule builds the seed's campaign mix over a run of the given
// length. Each campaign is one benchmark at one sharing degree and
// line-buffer count, two adjacent cache sizes and both bus counts:
// four rows plus the benchmark's baseline, which every campaign of
// that benchmark shares. Campaigns also share rows where their sizes
// overlap, so the store serves a growing share of each campaign.
func schedule(seed uint64, run time.Duration) ([]planned, error) {
	rng := rand.New(rand.NewPCG(seed, 0x736572766963652d))
	profiles := synth.Profiles()
	cpcs, kbs, lbs := []int{2, 4, 8}, []int{8, 16, 32}, []int{2, 4, 8}
	// kinds enumerates every distinct campaign.
	var kinds []synth.ArrivalPoint
	for _, p := range profiles {
		for _, cpc := range cpcs {
			for _, kb := range kbs {
				for _, lb := range lbs {
					kinds = append(kinds, synth.ArrivalPoint{Bench: p.Name, CPC: cpc, KB: kb, LB: lb})
				}
			}
		}
	}
	// distinct draws n campaigns without replacement, so (nearly) every
	// steady-phase campaign brings fresh points and waits on the worker;
	// repeated draws with replacement, so later ramp campaigns are
	// increasingly served from the store.
	distinct := func(n int) []synth.ArrivalPoint {
		pts := make([]synth.ArrivalPoint, n)
		for i, k := range rng.Perm(len(kinds))[:n] {
			pts[i] = kinds[k]
		}
		return pts
	}
	repeated := func(n int) []synth.ArrivalPoint {
		pts := make([]synth.ArrivalPoint, n)
		for i := range pts {
			pts[i] = kinds[rng.IntN(len(kinds))]
		}
		return pts
	}
	steadyLen := time.Duration(float64(run) * steadyShare)
	rampLen := run - steadyLen

	steady, err := synth.SynthesizeArrivals(synth.ArrivalSpec{
		Mode: synth.ArrivalSteady, StartRPS: steadyRPS, Slot: time.Second,
	}, distinct(min(len(kinds), int(steadyRPS*steadyLen.Seconds()))))
	if err != nil {
		return nil, err
	}
	rampSpec := synth.ArrivalSpec{
		Mode: synth.ArrivalSweep, StartRPS: rampStart, StepRPS: rampStep, TargetRPS: rampTarget, Slot: rampSlot,
	}
	slots := int(rampLen / rampSlot)
	var n float64
	for s := 0; s < slots; s++ {
		n += rampSpec.SlotRPS(s) * rampSlot.Seconds()
	}
	ramp, err := synth.SynthesizeArrivals(rampSpec, repeated(int(n)))
	if err != nil {
		return nil, err
	}

	var out []planned
	for _, a := range steady {
		out = append(out, planned{due: a.Offset, rate: steadyRPS, space: campaignSpace(a.Point)})
	}
	for _, a := range ramp {
		rung := int(a.Offset / rampSlot)
		if rung >= slots {
			break
		}
		out = append(out, planned{
			due: steadyLen + a.Offset, ramp: true, rung: rung,
			rate: rampSpec.SlotRPS(rung), space: campaignSpace(a.Point),
		})
	}
	return out, nil
}

// campaignSpace is the small space an anchor stands for.
func campaignSpace(a synth.ArrivalPoint) sweep.Space {
	return sweep.Space{
		Benches:     []string{a.Bench},
		CPCs:        []int{a.CPC},
		SizesKB:     []int{a.KB, 2 * a.KB},
		LineBuffers: []int{a.LB},
		Buses:       []int{1, 2},
	}
}

// campaignSpec expands a space on r into the submission body and the
// content hashes of every plan point (baseline included).
func campaignSpec(r *experiments.Runner, sp sweep.Space) (campaignd.CampaignSpec, []string) {
	plan, rows := sp.Build(r)
	spec := campaignd.CampaignSpec{}
	for _, row := range rows {
		spec.Rows = append(spec.Rows, campaignd.PointSpec{Bench: row.Bench, CPC: row.CPC, KB: row.KB, LB: row.LB, Bus: row.Bus})
	}
	var hashes []string
	for _, pt := range plan.Points() {
		hashes = append(hashes, r.PointKey(pt).Hex())
	}
	return spec, hashes
}

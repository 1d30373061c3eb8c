// Ablation benches for the paper's §VII future-work items: the I-bus
// arbitration policy (the shared bus's "fetch policy") and a branch
// predictor shared among the SPMD worker cores. Run with:
//
//	go test -bench=Ablation -benchtime=1x
package sharedicache

import (
	"testing"
)

// ablationWorkload synthesises the paper's worst congestion case (UA)
// at bench scale.
func ablationWorkload(b *testing.B) *Workload {
	b.Helper()
	p, ok := ProfileByName("UA")
	if !ok {
		b.Fatal("no UA profile")
	}
	w, err := NewWorkload(p, WorkloadConfig{Workers: 8, MasterInstructions: 80_000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// simulateWarm runs one prewarmed simulation.
func simulateWarm(b *testing.B, w *Workload, cfg Config) *Result {
	b.Helper()
	sim, err := NewSimulator(cfg, w.Sources())
	if err != nil {
		b.Fatal(err)
	}
	ic := make([][]uint64, cfg.Workers+1)
	l2 := make([][]uint64, cfg.Workers+1)
	for i := 0; i <= cfg.Workers; i++ {
		ic[i] = w.WarmLines(i, cfg.ICache.LineBytes)
		l2[i] = w.L2WarmLines(i, cfg.Mem.L2.LineBytes)
	}
	sim.Prewarm(ic, l2)
	res, err := sim.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblation_Arbitration compares bus arbitration policies on
// the naive single-bus cpc=8 design, where contention is maximal. The
// metrics are per-policy execution time normalised to round-robin and
// the mean bus wait.
func BenchmarkAblation_Arbitration(b *testing.B) {
	w := ablationWorkload(b)
	var rr, fixed, oldest float64
	var rrWait, fixedWait, oldestWait float64
	for i := 0; i < b.N; i++ {
		cfg := SharedConfig()
		cfg.Buses = 1 // maximise contention
		cfg.Arbitration = RoundRobin
		base := simulateWarm(b, w, cfg)
		rr = 1.0
		rrWait = base.Bus.AvgWait()

		cfg.Arbitration = FixedPriority
		fp := simulateWarm(b, w, cfg)
		fixed = float64(fp.Cycles) / float64(base.Cycles)
		fixedWait = fp.Bus.AvgWait()

		cfg.Arbitration = OldestFirst
		of := simulateWarm(b, w, cfg)
		oldest = float64(of.Cycles) / float64(base.Cycles)
		oldestWait = of.Bus.AvgWait()
	}
	b.ReportMetric(rr, "rr-time")
	b.ReportMetric(fixed, "fixedprio-time")
	b.ReportMetric(oldest, "oldest-time")
	b.ReportMetric(rrWait, "rr-wait-cyc")
	b.ReportMetric(fixedWait, "fixedprio-wait-cyc")
	b.ReportMetric(oldestWait, "oldest-wait-cyc")
}

// BenchmarkAblation_SharedPredictor measures the §VII future-work
// item: one fetch predictor shared by all workers. SPMD threads
// execute the same branches, so they train each other (constructive
// aliasing); the metric is worker mispredicts per kilo-instruction
// with private vs shared predictors on the paper's preferred design.
func BenchmarkAblation_SharedPredictor(b *testing.B) {
	w := ablationWorkload(b)
	var privMPKI, sharedMPKI, timeRatio float64
	for i := 0; i < b.N; i++ {
		cfg := SharedConfig()
		base := simulateWarm(b, w, cfg)

		cfg.SharedWorkerPredictor = true
		sp := simulateWarm(b, w, cfg)

		workerMispredictMPKI := func(r *Result) float64 {
			var mis, instr uint64
			for _, c := range r.Cores[1:] {
				mis += c.FE.Mispredicts
				instr += c.Instructions
			}
			if instr == 0 {
				return 0
			}
			return float64(mis) / float64(instr) * 1000
		}
		privMPKI = workerMispredictMPKI(base)
		sharedMPKI = workerMispredictMPKI(sp)
		timeRatio = float64(sp.Cycles) / float64(base.Cycles)
	}
	b.ReportMetric(privMPKI, "private-mispredict-MPKI")
	b.ReportMetric(sharedMPKI, "shared-mispredict-MPKI")
	b.ReportMetric(timeRatio, "shared-pred-time")
}

// BenchmarkAblation_LineBufferCount sweeps line buffers beyond the
// paper's 2/4/8 (1..16) on the single-bus shared design, locating the
// knee the paper's Fig 9/10 discussion implies.
func BenchmarkAblation_LineBufferCount(b *testing.B) {
	w := ablationWorkload(b)
	counts := []int{1, 2, 4, 8, 16}
	times := make([]float64, len(counts))
	for i := 0; i < b.N; i++ {
		var base uint64
		for j, lb := range counts {
			cfg := SharedConfig()
			cfg.Buses = 1
			cfg.LineBuffers = lb
			res := simulateWarm(b, w, cfg)
			if j == 0 {
				base = res.Cycles
			}
			times[j] = float64(res.Cycles) / float64(base)
		}
	}
	b.ReportMetric(times[1], "2LB-vs-1LB")
	b.ReportMetric(times[2], "4LB-vs-1LB")
	b.ReportMetric(times[3], "8LB-vs-1LB")
	b.ReportMetric(times[4], "16LB-vs-1LB")
}

// BenchmarkAblation_MSHRMerging quantifies the mutual-prefetch
// mechanism of §VI-C on a cold shared cache: the fraction of shared
// I-cache requests satisfied by in-flight fills from sibling cores.
func BenchmarkAblation_MSHRMerging(b *testing.B) {
	w := ablationWorkload(b)
	var mergeFrac float64
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulator(SharedConfig(), w.Sources())
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run() // cold: merging is a cold/capacity-miss effect
		if err != nil {
			b.Fatal(err)
		}
		if res.Bus.Granted > 0 {
			mergeFrac = float64(res.MergedFills) / float64(res.Bus.Granted)
		}
	}
	b.ReportMetric(100*mergeFrac, "%requests-merged")
}

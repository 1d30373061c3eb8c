package main

// The store probe: service-open's traced run ends by pricing one
// design point three ways on the analytical full grid — a local sweep,
// a local sweep with a cold on-disk store behind the Runner, and the
// grid through an in-process coordinator on loopback with a cold store
// and one closed-loop Worker. It gives the runstore write metrics and
// splits the distributed price into engine, store and dispatch.
//
// It is a probe rather than a workload because the distributed grid's
// wall time, dominated by loopback round trips and file writes, swings
// by up to a third between runs minutes apart on a shared 2-CPU host:
// beyond any bound an end-to-end metric can carry.

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"sharedicache/internal/campaignd"
	"sharedicache/internal/experiments"
	"sharedicache/internal/metrics"
	"sharedicache/internal/runstore"
	"sharedicache/internal/sweep"
	"sharedicache/internal/synth"
	"sharedicache/internal/tracing"
)

// gridSpace is cpc 2,4,8 × 8–64 KB × LB 2,4,8 × 1,2 buses over all
// 24 benchmarks: 1,752 points with baselines.
var gridSpace = func() sweep.Space {
	sp := sweep.Space{CPCs: []int{2, 4, 8}, SizesKB: []int{8, 16, 32, 64}, LineBuffers: []int{2, 4, 8}, Buses: []int{1, 2}}
	for _, p := range synth.Profiles() {
		sp.Benches = append(sp.Benches, p.Name)
	}
	return sp
}()

func analyticalOptions() experiments.Options {
	return fig7Options("analytical")
}

// remoteRun is the distributed grid and what the checks need.
type remoteRun struct {
	campaignRun
	writes, done int64
	sims         int
}

// remoteGrid sets up a coordinator over a cold store in dir, runs the
// grid through one Worker and merges the CSV.
func remoteGrid(ctx context.Context, dir string) (remoteRun, error) {
	var t remoteRun
	var rows []sweep.Row
	c, err := startCoordinator(ctx, nil, dir, analyticalOptions(), func(r *experiments.Runner) []experiments.Point {
		plan, rs := gridSpace.Build(r)
		rows, t.points = rs, plan.Points()
		return t.points
	}, nil)
	if err != nil {
		return t, err
	}
	defer c.close()

	start := time.Now()
	w := &campaignd.Worker{URL: c.url, ID: "worker-0", Parallelism: runtime.NumCPU(), Metrics: metrics.NewRegistry()}
	type outcome struct {
		rep campaignd.WorkerReport
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := w.Run(ctx)
		done <- outcome{rep, err}
	}()
	var buf bytes.Buffer
	out := sweep.NewCSV(&buf, c.runner.Options().Workers)
	err = out.Header()
	if err == nil {
		err = out.EmitStream(c.srv.Stream(ctx), rows, len(t.points))
	}
	o := <-done
	t.wall = time.Since(start).Seconds()
	if err != nil {
		return t, fmt.Errorf("merge: %w", err)
	}
	if o.err != nil {
		return t, fmt.Errorf("worker: %w", o.err)
	}
	t.csv = buf.Bytes()
	st := c.srv.Stats()
	t.writes, t.done, t.sims = st.Store.Writes, int64(st.Dispatch.Done), o.rep.Simulations
	return t, nil
}

// localSweep runs space on a fresh local Runner — with store behind it
// when non-nil — and returns the CSV and the wall seconds per point.
func localSweep(ctx context.Context, tr *tracing.Tracer, space sweep.Space, opts experiments.Options, store experiments.ResultStore) ([]byte, float64, error) {
	r, err := experiments.NewRunner(opts)
	if err != nil {
		return nil, 0, err
	}
	if store != nil {
		r.SetStore(store)
	}
	return sweepWith(ctx, tr, r, space)
}

// sweepWith sweeps space on r and returns the CSV and the wall seconds
// per point.
func sweepWith(ctx context.Context, tr *tracing.Tracer, r *experiments.Runner, space sweep.Space) ([]byte, float64, error) {
	start := time.Now()
	plan, rows := space.Build(r)
	runCtx, span := tr.Start(ctx, "experiments.runall")
	results, err := plan.RunAll(runCtx)
	span.End()
	if err != nil {
		return nil, 0, err
	}
	csv, err := renderCSV(ctx, tr, r.Options().Workers, rows, results)
	return csv, time.Since(start).Seconds() / float64(plan.Len()), err
}

// storeProbe runs the three sweeps of the probe untraced, after the
// traced run's timed region, so its spans stay out of the ledger. It
// fills the runner.* price per point and the runstore write metrics,
// and checks the distributed CSV against the local one.
func storeProbe(ctx context.Context, cfg config, rep *report) error {
	m := rep.metrics
	localCSV, localPoint, err := localSweep(ctx, nil, gridSpace, analyticalOptions(), nil)
	if err != nil {
		return err
	}
	m.set("runner.local_point_s", localPoint)

	dir := filepath.Join(cfg.dir, "probe-store")
	st, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	tap := &storeTap{inner: st}
	_, storePoint, err := localSweep(ctx, nil, gridSpace, analyticalOptions(), tap)
	if err != nil {
		return err
	}
	m.set("runner.store_point_s", storePoint)
	size, files, err := dirBytes(dir)
	if err != nil {
		return err
	}
	m.set("runstore.bytes_per_entry", float64(size)/float64(max(1, files)))
	puts := tap.puts.values()
	m.setN("runstore.put_s", median(puts), len(puts))

	t, err := remoteGrid(ctx, filepath.Join(cfg.dir, "probe-remote"))
	if err != nil {
		return err
	}
	pts := int64(len(t.points))
	m.set("runner.remote_point_s", t.wall/float64(pts))
	rep.check("probe csv == local sweep", bytes.Equal(t.csv, localCSV), "%d bytes", len(t.csv))
	rep.check("probe store writes == points", t.writes == pts && t.done == pts,
		"writes=%d done=%d points=%d", t.writes, t.done, pts)
	rep.check("probe no duplicate simulations", int64(t.sims) == pts, "simulations=%d", t.sims)
	fmt.Fprintf(cfg.log, "per-point cost: local %.1fµs, local+cold store %.1fµs, distributed %.1fµs\n",
		localPoint*1e6, storePoint*1e6, t.wall/float64(pts)*1e6)
	return nil
}

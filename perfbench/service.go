package main

// service-open: a serving coordinator (no initial plan) with a
// supervised fleet of one worker, fed small overlapping analytical
// campaigns open-loop from the seed's schedule — a steady phase below
// the knee, then an ArrivalSweep ramp past it. Completion is seen in
// the coordinator's own responses: the HTTP tap reports each durable
// PUT /v1/run/{hash}, and Runner.PointKey gives each campaign's
// hashes, so no poll interval quantises latency or adds load.
//
// The supervisor models deployment around a known defect: a serving
// coordinator answers Lease with Done whenever its queue drains, so
// Worker.Run returns and, unsupervised, no later campaign would ever
// complete. The supervisor restarts the worker after the worker's own
// idle poll interval, so latency matches a worker that stays attached;
// worker.restarts counts the restarts (see NOTES.md for the repro).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sharedicache/internal/campaignd"
	"sharedicache/internal/experiments"
	"sharedicache/internal/metrics"
	"sharedicache/internal/tracing"
)

const (
	// latencyLimit is the campaign_tail_s limit the ramp's max rate is
	// judged against: twice the worker's idle poll interval at the
	// default TTL, above the steady phase's tail on a 2-CPU host.
	latencyLimit = 2 * time.Second
	// drainGrace bounds how long after the last arrival the run waits
	// for outstanding campaigns; any still incomplete count as failed.
	drainGrace = 30 * time.Second
	// maxInFlight bounds concurrent submissions; a generator held up
	// here runs late, which gen_lag_tail_s reports.
	maxInFlight = 64
	// serviceSetupReps is how many set-ups a run makes besides the
	// one it serves from, so setup_s is a median over several.
	serviceSetupReps = 99
)

// svcCampaign is one submitted campaign and its observed lifecycle.
type svcCampaign struct {
	planned
	spec   campaignd.CampaignSpec
	hashes []string
	points int
	dueAt  time.Time

	// Guarded by tracker.mu.
	pending  int
	id       int
	enqueued bool
	sent     time.Time
	done     time.Time
	err      error
	csv      []byte
}

// tracker matches durable store writes to the campaigns waiting on
// them.
type tracker struct {
	mu      sync.Mutex
	stored  map[string]bool
	waiting map[string][]*svcCampaign
	// finished receives each campaign once, when it is both enqueued
	// and complete; it is buffered for every campaign so a send never
	// blocks under mu.
	finished chan *svcCampaign
}

func newTracker(n int) *tracker {
	return &tracker{stored: map[string]bool{}, waiting: map[string][]*svcCampaign{}, finished: make(chan *svcCampaign, n)}
}

// register records which of c's points are not yet durable; call it
// before submitting c.
func (t *tracker) register(c *svcCampaign) {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[string]bool{}
	for _, h := range c.hashes {
		if seen[h] || t.stored[h] {
			continue
		}
		seen[h] = true
		c.pending++
		t.waiting[h] = append(t.waiting[h], c)
	}
}

// onPut is the HTTP tap's durable-write callback.
func (t *tracker) onPut(hash string) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stored[hash] {
		return
	}
	t.stored[hash] = true
	for _, c := range t.waiting[hash] {
		if c.pending--; c.pending == 0 {
			c.done = now
			if c.enqueued {
				t.finished <- c
			}
		}
	}
	delete(t.waiting, hash)
}

// accepted records the coordinator's enqueue reply. A campaign whose
// points were all durable already completes with the reply.
func (t *tracker) accepted(c *svcCampaign, id int) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	c.id, c.enqueued = id, true
	if c.pending == 0 {
		if c.done.IsZero() {
			c.done = now
		}
		t.finished <- c
	}
}

// serviceRun is one served schedule's outcome.
type serviceRun struct {
	setups      []float64
	campaigns   []*svcCampaign
	start       time.Time
	wall        float64
	restarts    int64
	lost, renew float64
	stats       campaignd.Statsz
	coord       *coordinator
}

func runService(ctx context.Context, cfg config) (*report, error) {
	rep := &report{metrics: newMetricSet()}
	m := rep.metrics
	var plain, traced *serviceRun
	var err error
	if cfg.tr == nil {
		if plain, err = serveSchedule(ctx, cfg, nil, cfg.seconds); err != nil {
			return nil, err
		}
	} else {
		// The traced run serves the schedule twice, untraced then
		// traced, on fresh coordinators, to measure tracing overhead.
		half := cfg.seconds / 2
		if plain, err = serveSchedule(ctx, cfg, nil, half); err != nil {
			return nil, err
		}
		if traced, err = serveSchedule(ctx, cfg, cfg.tr, half); err != nil {
			return nil, err
		}
	}

	steady := latencies(plain.campaigns, false)
	m.setN("setup_s", median(plain.setups), len(plain.setups))
	m.setN("campaign_p50_s", median(steady), len(steady))
	if p, v, ok := tailPercentile(steady); ok {
		m.setN("campaign_tail_s", v, len(steady))
		m.set("campaign_tail_pct", float64(p))
	}
	m.setN("points_per_s", steadyThroughput(plain), len(steady))
	rate, rungs := maxRate(plain, cfg.log)
	m.setN("max_rate_per_s", rate, rungs)
	var lags []float64
	for _, c := range plain.campaigns {
		if !c.sent.IsZero() {
			lags = append(lags, c.sent.Sub(c.dueAt).Seconds())
		}
	}
	if p, v, ok := tailPercentile(lags); ok {
		m.setN("gen_lag_tail_s", v, len(lags))
		m.set("gen_lag_tail_pct", float64(p))
	}
	m.set("worker.restarts", float64(plain.restarts))
	fmt.Fprintf(cfg.log, "latency limit %.1fs; max rate %.0f/s over %d ramp rungs; %d worker restarts\n",
		latencyLimit.Seconds(), rate, rungs, plain.restarts)

	runs := []*serviceRun{plain}
	if traced != nil {
		runs = append(runs, traced)
		tSteady := latencies(traced.campaigns, false)
		m.set("trace.overhead_frac", median(tSteady)/median(steady)-1)
		serviceLayers(m, traced)
		rep.wall = traced.wall
		if err := storeProbe(ctx, cfg, rep); err != nil {
			return nil, err
		}
	}

	// Output checks, outside every timed region: each campaign's CSV,
	// fetched once at completion, against a local sweep of its space.
	local, err := experiments.NewRunner(analyticalOptions())
	if err != nil {
		return nil, err
	}
	for _, run := range runs {
		matched, completed := 0, 0
		for _, c := range run.campaigns {
			rep.attempted++
			if c.err != nil || c.done.IsZero() || c.csv == nil {
				rep.failed++
				continue
			}
			completed++
			want, _, err := sweepWith(ctx, nil, local, c.space)
			if err != nil {
				return nil, err
			}
			if bytes.Equal(c.csv, want) {
				matched++
			}
		}
		rep.check("service csv == local sweep per campaign", matched == completed,
			"%d/%d completed campaigns match", matched, completed)
		rep.check("service campaigns complete", completed == len(run.campaigns),
			"%d/%d within %s of the last arrival", completed, len(run.campaigns), drainGrace)
	}
	return rep, nil
}

// latencies returns the due-to-durable latency of every campaign of
// the steady phase (ramp false) or the ramp; a campaign that failed or
// never completed counts as +Inf, missing any limit.
func latencies(cs []*svcCampaign, ramp bool) (lat []float64) {
	for _, c := range cs {
		if c.ramp != ramp {
			continue
		}
		if c.err != nil || c.done.IsZero() {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, c.done.Sub(c.dueAt).Seconds())
	}
	return lat
}

// steadyThroughput is the steady phase's design points durably
// complete per second, from the first due time to the last completion.
func steadyThroughput(run *serviceRun) float64 {
	var points int
	var last time.Time
	for _, c := range run.campaigns {
		if c.ramp || c.done.IsZero() {
			continue
		}
		points += c.points
		if c.done.After(last) {
			last = c.done
		}
	}
	return float64(points) / last.Sub(run.start).Seconds()
}

// maxRate is the highest ramp rung whose campaigns kept the tail within
// latencyLimit while the backlog did not grow, and how many rungs ran.
func maxRate(run *serviceRun, log io.Writer) (float64, int) {
	byRung := map[int][]*svcCampaign{}
	rungs := 0
	for _, c := range run.campaigns {
		if c.ramp {
			byRung[c.rung] = append(byRung[c.rung], c)
			rungs = max(rungs, c.rung+1)
		}
	}
	best := 0.0
	for r := 0; r < rungs; r++ {
		cs := byRung[r]
		if len(cs) == 0 {
			continue
		}
		lat := latencies(cs, true)
		_, tail, ok := tailPercentile(lat)
		if log != nil {
			fmt.Fprintf(log, "rung %d: %.0f/s, %d campaigns, p50 %.3fs, tail %.3fs, backlog %d -> %d\n", r, cs[0].rate, len(cs), median(lat), tail,
				backlog(run, cs[0].dueAt), backlog(run, cs[len(cs)-1].dueAt.Add(time.Duration(float64(time.Second)/cs[0].rate))))
		}
		if !ok || tail > latencyLimit.Seconds() {
			break
		}
		// Backlog: campaigns due by the rung's end still incomplete then,
		// against the same count at its start; one poll interval's worth
		// of arrivals is the most a healthy worker leaves waiting.
		begin := cs[0].dueAt
		end := cs[len(cs)-1].dueAt.Add(time.Duration(float64(time.Second) / cs[0].rate))
		if backlog(run, end) > backlog(run, begin)+int(cs[0].rate*pollInterval().Seconds()) {
			break
		}
		best = cs[0].rate
	}
	return best, rungs
}

// backlog counts campaigns due by t and not yet complete at t.
func backlog(run *serviceRun, t time.Time) int {
	n := 0
	for _, c := range run.campaigns {
		if c.dueAt.After(t) {
			continue
		}
		if c.done.IsZero() || c.done.After(t) {
			n++
		}
	}
	return n
}

// pollInterval is the worker's idle poll interval at the default TTL,
// clamp(TTL/5, 10ms, 1s) — the supervisor's restart delay.
func pollInterval() time.Duration {
	return min(max(campaignd.DefaultTTL/5, 10*time.Millisecond), time.Second)
}

// serveSchedule starts a serving coordinator and its supervised
// worker, replays the seed's schedule over span seconds open-loop, and
// waits for the campaigns to complete.
func serveSchedule(ctx context.Context, cfg config, tr *tracing.Tracer, span time.Duration) (*serviceRun, error) {
	run := &serviceRun{}
	plan, err := schedule(cfg.seed, span)
	if err != nil {
		return nil, err
	}
	dirs := 0
	nextDir := func() string {
		dirs++
		return fmt.Sprintf("%s/service-%p-%d", cfg.dir, run, dirs)
	}
	for i := 0; i < serviceSetupReps; i++ {
		start := time.Now()
		c, err := startCoordinator(ctx, nil, nextDir(), analyticalOptions(), nil, nil)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, time.Since(start).Seconds())
		c.close()
	}

	trk := newTracker(len(plan))
	start := time.Now()
	c, err := startCoordinator(ctx, tr, nextDir(), analyticalOptions(), nil, trk.onPut)
	if err != nil {
		return nil, err
	}
	run.setups = append(run.setups, time.Since(start).Seconds())
	run.coord = c
	defer c.close()

	// The campaign bodies and hashes are the generator's input, built
	// before the clock starts.
	for _, p := range plan {
		_, sp := tr.Start(ctx, "sweep.build")
		spec, hashes := campaignSpec(c.runner, p.space)
		sp.End()
		run.campaigns = append(run.campaigns, &svcCampaign{planned: p, spec: spec, hashes: hashes, points: len(hashes)})
	}

	wctx, stopWorker := context.WithCancel(ctx)
	reg := metrics.NewRegistry()
	var restarts atomic.Int64
	supervised := make(chan error, 1)
	go func() { supervised <- supervise(wctx, c, tr, reg, &restarts) }()

	run.start = time.Now()
	genDone := make(chan struct{})
	var enqueued atomic.Int64
	go func() {
		defer close(genDone)
		generate(ctx, c.client, trk, run, &enqueued)
	}()

	// Fetch each campaign's CSV once, as it completes.
	lastDue := run.start.Add(plan[len(plan)-1].due)
	drain := time.NewTimer(time.Until(lastDue.Add(drainGrace)))
	defer drain.Stop()
	got := 0
	generated := false
collect:
	for !generated || int64(got) < enqueued.Load() {
		select {
		case cm := <-trk.finished:
			got++
			csv, err := c.client.CampaignCSV(ctx, cm.id)
			trk.mu.Lock()
			cm.csv, cm.err = csv, err
			trk.mu.Unlock()
		case <-genDone:
			generated, genDone = true, nil
		case <-drain.C:
			break collect
		}
	}
	run.wall = time.Since(run.start).Seconds()
	stopWorker()
	if err := <-supervised; err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	if !generated {
		<-genDone
	}
	run.restarts = restarts.Load()
	run.lost, _ = reg.Value("worker_lost_leases_total")
	run.renew, _ = reg.Value("worker_renew_failures_total")
	run.stats = c.srv.Stats()
	// Freeze the campaigns for the caller: late writes no longer land.
	trk.mu.Lock()
	defer trk.mu.Unlock()
	for _, cm := range run.campaigns {
		if cm.csv == nil {
			cm.done = time.Time{}
		}
	}
	return run, nil
}

// generate submits every campaign at its due time, regardless of
// completion, with at most maxInFlight submissions outstanding.
func generate(ctx context.Context, client *campaignd.Client, trk *tracker, run *serviceRun, enqueued *atomic.Int64) {
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, c := range run.campaigns {
		c.dueAt = run.start.Add(c.due)
		select {
		case <-time.After(time.Until(c.dueAt)):
		case <-ctx.Done():
			return
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return
		}
		wg.Add(1)
		go func(c *svcCampaign) {
			defer wg.Done()
			defer func() { <-sem }()
			trk.register(c)
			sent := time.Now()
			trk.mu.Lock()
			c.sent = sent
			trk.mu.Unlock()
			reply, err := client.Enqueue(ctx, c.spec)
			if err != nil {
				trk.mu.Lock()
				c.err = err
				trk.mu.Unlock()
				return
			}
			enqueued.Add(1)
			trk.accepted(c, reply.ID)
		}(c)
	}
}

// supervise keeps one worker attached to the serving coordinator:
// whenever Worker.Run returns because the queue drained, it starts a
// new worker after the idle poll interval. It returns nil once ctx
// ends, or the first worker error.
func supervise(ctx context.Context, c *coordinator, tr *tracing.Tracer, reg *metrics.Registry, restarts *atomic.Int64) error {
	for {
		w := &campaignd.Worker{URL: c.url, ID: "worker-0", Parallelism: runtime.NumCPU(), Metrics: reg}
		wctx, span := tr.Start(ctx, "campaignd.worker.run")
		if tr != nil {
			c.httpTap.setWorker(span.Context())
		}
		_, err := w.Run(wctx)
		span.End()
		if ctx.Err() != nil {
			return nil
		}
		if err != nil {
			return err
		}
		restarts.Add(1)
		select {
		case <-time.After(pollInterval()):
		case <-ctx.Done():
			return nil
		}
	}
}

// serviceLayers fills the traced run's per-layer metrics.
func serviceLayers(m metricSet, run *serviceRun) {
	run.coord.httpTap.report(m)
	sum, n := run.coord.queueWait()
	if n > 0 {
		m.setN("dispatch.queue_wait_s", sum/n, int(n))
	}
	if d := run.stats.Dispatch.Done; d > 0 {
		m.set("dispatch.dedup_frac", float64(int64(d)-run.stats.Store.Writes)/float64(d))
	}
	m.set("worker.restarts", float64(run.restarts))
	m.set("worker.lost_leases", run.lost)
	m.set("worker.renew_failures", run.renew)
	if tap := run.coord.storeTap; tap != nil {
		gets := tap.gets.values()
		m.setN("runstore.get_s", median(gets), len(gets))
	}
}

package campaignd

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"sharedicache/internal/experiments"
	"sharedicache/internal/metrics"
	"sharedicache/internal/sweep"
	"sharedicache/internal/tracing"
)

// pointState is the dispatch lifecycle of one plan point.
type pointState int8

const (
	pointPending pointState = iota // waiting to be leased
	pointLeased                    // owned by a live (or not-yet-expired) lease
	pointDone                      // result published to the store
	pointHeld                      // declared by an open campaign, not yet arrived
)

// lease is one worker's claim on a batch of points. It is renewed by
// heartbeats; once deadline passes, any dispatch operation may expire
// it, returning its unfinished points to the queue for another worker
// to steal.
type lease struct {
	id       string
	worker   string
	deadline time.Time
	granted  time.Time
	// camp is the campaign every point of the batch belongs to;
	// indexes are global point indexes.
	camp    *campaign
	indexes []int
	// span is the lease's trace span (nil when tracing is off): opened
	// at grant, its context rides the X-Trace-Context response header
	// so the worker's batch spans parent under it, and it ends with an
	// outcome attribute when the lease completes, forfeits or expires.
	span *tracing.ActiveSpan
}

// campaign is the one record of an enqueued campaign. Its points
// occupy the global indexes [base, base+size) of the worker protocol.
// While any point is unfinished the record owns the per-point state
// (live); once every point is done the campaign retires: live and its
// content-address entries are dropped, and only the identity, the
// accept time and the spec — enough to answer status and re-expand
// the CSV from the store — remain.
type campaign struct {
	id, base, size int
	// spec is the submitted campaign; nil for the initial plan New was
	// given, whose merge its driver renders via Server.Stream.
	spec     *CampaignSpec
	accepted time.Time
	live     *campaignState // nil once retired
}

// campaignState is a live campaign's per-point state, indexed by
// campaign-local point index: rows are the expanded spec's (arrivals
// map through them), backends[k] counts point k's backend, done[k]
// closes when point k completes and enqueued[k] is when it last became
// leasable. count tallies the points in each state, and no pending
// point sits below the low-water cursor, so Lease scans from there.
type campaignState struct {
	points   []experiments.Point
	rows     []sweep.Row
	hashes   []string
	backends []*backendCount
	state    []pointState
	done     []chan struct{}
	enqueued []time.Time
	count    [pointHeld + 1]int
	cursor   int
}

// backendCount is one backend's lifetime plan and completion counts,
// backing the per-backend gauges.
type backendCount struct{ points, done int }

// closedLatch is the completion latch of every retired point.
var closedLatch = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// dispatch is the coordinator's work queue over the enqueued
// campaigns. All methods are safe for concurrent use. Lease expiry is
// lazy: every mutating call first sweeps expired leases, so as long as
// any worker is polling for work, crashed workers' points flow back
// into the queue without a background janitor.
//
// Workers see one global point index space, in which each campaign
// owns a contiguous range. Open-loop campaigns park points in the held
// state until markArrived releases them, which is how `sweep -replay`
// submits work at trace-dictated times. A campaign whose every point
// is done retires, so the queue's memory and per-lease work follow the
// live campaigns, not the coordinator's history.
//
// batch == 0 selects adaptive batch sizing: the queue tracks an EWMA
// of the observed per-point completion latency (lease grant to lease
// completion, divided by the batch size) and hands out enough points
// to keep a worker busy for about a third of the lease TTL — long
// enough to amortise the lease round trip, short enough that a crash
// forfeits little work and heartbeats comfortably outpace the TTL.
type dispatch struct {
	ttl   time.Duration
	batch int
	now   func() time.Time

	mu sync.Mutex
	// camps holds every campaign ever enqueued, indexed by id (retired
	// ones are a few words each); ring the live campaigns with pending
	// points, in id order; rr the campaign id Lease starts its
	// round-robin from.
	camps []*campaign
	ring  []*campaign
	rr    int
	// byHash maps a content address to the global indexes of the live
	// points stored under it, which lets store-plane writes complete
	// dispatch points.
	byHash map[string][]int
	leases map[string]*lease
	seq    int
	// total counts the points of every campaign ever enqueued, count
	// the points in each state (done over the lifetime, the rest over
	// the live campaigns), live the unretired campaigns.
	total, live int
	count       [pointHeld + 1]int
	backends    map[string]*backendCount
	expired     int64 // leases expired so far (observability)
	// Lease-lifecycle counters (observability): granted counts Lease
	// grants; completed counts Completes that reported work; forfeited
	// counts Completes with no indexes (a worker giving a whole batch
	// back); releasedPts counts points returned to the queue by Release.
	granted, completed, forfeited, releasedPts int64
	// pointSec is the EWMA of observed seconds per completed point;
	// zero until the first lease completes.
	pointSec float64

	// reg, once registerMetrics ran, lets enqueue register gauges for
	// backends that first appear in a later campaign.
	reg *metrics.Registry

	// tracer, when non-nil, records the dispatch-plane spans: a "lease"
	// span per grant and a completed "enqueue" span per granted point
	// covering its queue wait.
	tracer *tracing.Tracer
	// queueWait, when metrics are registered, books each granted
	// point's queue wait as a /metrics histogram — the scrape-plane
	// twin of the "enqueue" trace spans, so operators without a trace
	// file still see queue latency.
	queueWait *metrics.Histogram
}

// Adaptive batch bounds and tuning.
const (
	maxAdaptiveBatch = 64
	// leaseFill is the fraction of the TTL an adaptive batch should
	// keep a worker busy for.
	leaseFill = 1.0 / 3
	// ewmaAlpha weights the newest per-point latency observation.
	ewmaAlpha = 0.3
)

// newDispatch builds the queue over an initial campaign's plan points
// (possibly empty, for a serve-mode coordinator that starts idle);
// hashes[i] is point i's content address, which lets store-plane
// writes complete dispatch points, and backendOf[i] the backend name
// feeding the per-backend gauges.
func newDispatch(points []experiments.Point, hashes, backendOf []string, ttl time.Duration, batch int, now func() time.Time) *dispatch {
	d := &dispatch{
		ttl:      ttl,
		batch:    batch,
		now:      now,
		byHash:   make(map[string][]int, len(points)),
		leases:   map[string]*lease{},
		backends: map[string]*backendCount{},
	}
	d.enqueue(nil, nil, points, hashes, backendOf, nil)
	return d
}

// enqueue appends one campaign — its spec and expanded rows (nil for
// the initial plan), points, content addresses and backends — and
// returns its record. held[k] parks point k until markArrived releases
// it (nil: all leasable now). A point whose hash another live campaign
// shares completes on that campaign's store write, so overlapping
// campaigns never duplicate simulations.
func (d *dispatch) enqueue(spec *CampaignSpec, rows []sweep.Row, points []experiments.Point, hashes, backendOf []string, held []bool) *campaign {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(points)
	c := &campaign{id: len(d.camps), base: d.total, size: n, spec: spec, accepted: d.now()}
	d.camps = append(d.camps, c)
	if n == 0 {
		return c // nothing to do: retired on arrival
	}
	d.total += n
	d.live++
	cs := &campaignState{
		points: points, rows: rows, hashes: hashes,
		backends: make([]*backendCount, n),
		state:    make([]pointState, n),
		done:     make([]chan struct{}, n),
		enqueued: make([]time.Time, n),
	}
	c.live = cs
	for k := range points {
		cs.backends[k] = d.backendLocked(backendOf[k])
		cs.backends[k].points++
		cs.done[k] = make(chan struct{})
		cs.enqueued[k] = c.accepted
		d.byHash[hashes[k]] = append(d.byHash[hashes[k]], c.base+k)
		if held != nil && held[k] {
			cs.state[k] = pointHeld
		}
		cs.count[cs.state[k]]++
		d.count[cs.state[k]]++
	}
	if cs.count[pointPending] > 0 {
		d.ring = append(d.ring, c) // the newest id sorts last
	}
	return c
}

// campaign returns the record of campaign id.
func (d *dispatch) campaign(id int) (*campaign, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id < 0 || id >= len(d.camps) {
		return nil, false
	}
	return d.camps[id], true
}

// locateLocked finds the campaign owning global point index i, which
// the caller has range-checked. Caller holds d.mu.
func (d *dispatch) locateLocked(i int) (*campaign, int) {
	// The last campaign starting at or before i owns it (empty
	// campaigns share their successor's base and sort before it).
	j := sort.Search(len(d.camps), func(j int) bool { return d.camps[j].base > i }) - 1
	c := d.camps[j]
	return c, i - c.base
}

// checkRangeLocked rejects indexes outside every campaign ever
// enqueued. Caller holds d.mu.
func (d *dispatch) checkRangeLocked(indexes []int) error {
	for _, i := range indexes {
		if i < 0 || i >= d.total {
			return fmt.Errorf("campaignd: point index %d out of range", i)
		}
	}
	return nil
}

// setLocked moves live point k of c to state to, keeping every
// counter, the pending ring and the low-water cursor current, closing
// the completion latch on done and retiring the campaign when its
// last point completes. Caller holds d.mu.
func (d *dispatch) setLocked(c *campaign, k int, to pointState) {
	cs := c.live
	from := cs.state[k]
	if from == to {
		return
	}
	cs.state[k] = to
	cs.count[from]--
	d.count[from]--
	cs.count[to]++
	d.count[to]++
	switch {
	case from == pointPending && cs.count[pointPending] == 0:
		j := d.ringSearchLocked(c.id)
		d.ring = append(d.ring[:j], d.ring[j+1:]...)
	case to == pointPending && cs.count[pointPending] == 1:
		d.ring = slices.Insert(d.ring, d.ringSearchLocked(c.id), c)
	}
	switch to {
	case pointPending:
		cs.enqueued[k] = d.now()
		cs.cursor = min(cs.cursor, k)
	case pointDone:
		cs.backends[k].done++
		close(cs.done[k])
		if cs.count[pointDone] == c.size {
			d.retireLocked(c)
		}
	}
}

// ringSearchLocked is the ring position of the first campaign whose id
// is at least id. Caller holds d.mu.
func (d *dispatch) ringSearchLocked(id int) int {
	return sort.Search(len(d.ring), func(j int) bool { return d.ring[j].id >= id })
}

// retireLocked drops a finished campaign's per-point state and its
// content-address entries. Caller holds d.mu.
func (d *dispatch) retireLocked(c *campaign) {
	for _, h := range c.live.hashes {
		// Filter a copy: completeHash may be ranging over the original.
		kept := slices.DeleteFunc(slices.Clone(d.byHash[h]), func(i int) bool { return i >= c.base && i < c.base+c.size })
		if len(kept) == 0 {
			delete(d.byHash, h)
		} else {
			d.byHash[h] = kept
		}
	}
	c.live = nil
	d.live--
}

// backendLocked returns backend b's counters, registering its gauges
// the first time the name appears. Caller holds d.mu.
func (d *dispatch) backendLocked(b string) *backendCount {
	bc, ok := d.backends[b]
	if !ok {
		bc = &backendCount{}
		d.backends[b] = bc
		if d.reg != nil {
			d.registerBackendLocked(b, bc)
		}
	}
	return bc
}

// markArrived releases held points to the queue (held -> pending, as
// of now). Points already completed — deduplicated against another
// campaign's store write, or resumed from a warm store — stay done,
// and points of retired campaigns are done by definition; their
// arrival is a no-op. Out-of-range indexes report an error.
func (d *dispatch) markArrived(indexes []int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRangeLocked(indexes); err != nil {
		return err
	}
	for _, i := range indexes {
		if c, k := d.locateLocked(i); c.live != nil && c.live.state[k] == pointHeld {
			d.setLocked(c, k, pointPending)
		}
	}
	return nil
}

// rowIndexes maps campaign-local row indexes of c to the global point
// indexes /arrive releases: none for a retired campaign, whose rows
// are all done, and an error for an index past the spec's rows.
func (d *dispatch) rowIndexes(c *campaign, rows []int) ([]int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var indexes []int
	for _, row := range rows {
		if c.spec == nil || row < 0 || row >= len(c.spec.Rows) {
			return nil, fmt.Errorf("row index %d out of range", row)
		}
		if c.live != nil {
			indexes = append(indexes, c.base+c.live.rows[row].PointIdx)
		}
	}
	return indexes, nil
}

// CampaignProgress is one campaign's point accounting.
type CampaignProgress struct {
	// Points is the campaign's plan size; Done counts results durably
	// in the store; Held counts declared-but-unarrived open-loop
	// points. The campaign is complete when Done == Points.
	Points, Done, Held int
}

// campaignProgress snapshots one campaign's accounting.
func (d *dispatch) campaignProgress(camp int) CampaignProgress {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.camps[camp]
	if c.live == nil {
		return CampaignProgress{Points: c.size, Done: c.size}
	}
	return CampaignProgress{Points: c.size, Done: c.live.count[pointDone], Held: c.live.count[pointHeld]}
}

// endLeaseSpanLocked finishes a lease's span with its outcome
// ("completed", "forfeited", "expired"). Caller holds d.mu; safe when
// tracing is off (nil span).
func endLeaseSpanLocked(l *lease, outcome string) {
	l.span.SetAttr("outcome", outcome)
	l.span.End()
}

// requeueLocked returns lease l's still-leased points to the queue.
// Caller holds d.mu.
func (d *dispatch) requeueLocked(l *lease) {
	c := l.camp
	if c.live == nil {
		return // retired: every point is done
	}
	for _, i := range l.indexes {
		if k := i - c.base; c.live.state[k] == pointLeased {
			d.setLocked(c, k, pointPending)
		}
	}
}

// expireLocked returns every overdue lease's unfinished points to the
// queue. Caller holds d.mu.
func (d *dispatch) expireLocked() {
	now := d.now()
	for id, l := range d.leases {
		if now.Before(l.deadline) {
			continue
		}
		d.requeueLocked(l)
		endLeaseSpanLocked(l, "expired")
		delete(d.leases, id)
		d.expired++
	}
}

// completeHash marks every live plan point stored under the given
// content address as done. The store plane calls it after each
// successful PUT: a point is complete exactly when its result is
// durably in the store, which also lets a coordinator restarted over a
// warm store resume instead of re-dispatching finished work.
func (d *dispatch) completeHash(hash string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, i := range d.byHash[hash] {
		if c, k := d.locateLocked(i); c.live != nil {
			d.setLocked(c, k, pointDone)
		}
	}
}

// effectiveBatchLocked resolves the batch size for the next lease: the
// configured size, or — when configured adaptive (0) — a size derived
// from the observed mean point latency. Caller holds d.mu.
func (d *dispatch) effectiveBatchLocked() int {
	if d.batch > 0 {
		return d.batch
	}
	if d.pointSec <= 0 {
		return DefaultBatch
	}
	return min(max(int(d.ttl.Seconds()*leaseFill/d.pointSec), 1), maxAdaptiveBatch)
}

// observeLocked folds one completed lease into the per-point latency
// EWMA. Caller holds d.mu.
func (d *dispatch) observeLocked(l *lease, completed int) {
	if l == nil || completed <= 0 || l.granted.IsZero() {
		return
	}
	obs := d.now().Sub(l.granted).Seconds() / float64(completed)
	if obs <= 0 {
		return
	}
	if d.pointSec == 0 {
		d.pointSec = obs
	} else {
		d.pointSec = (1-ewmaAlpha)*d.pointSec + ewmaAlpha*obs
	}
}

// Lease hands out up to max pending points (at most the configured or
// adaptive batch; max <= 0 means the full batch) with their plan
// points. Each batch is drawn from a single campaign, chosen
// round-robin from the fairness cursor over the campaigns with pending
// points — FIFO within a campaign (plan order, so early rows stream
// out of the merge first, and returned or stolen points go out before
// later ones), fair across live campaigns so one giant plan cannot
// starve a later small one; with one campaign this is exactly
// plan-order dispatch. It returns no points when everything is
// leased, held or done; allDone then distinguishes "poll again" from
// "every enqueued campaign is complete".
func (d *dispatch) Lease(worker string, max int) (id string, indexes []int, points []experiments.Point, allDone bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	batch := d.effectiveBatchLocked()
	if max <= 0 || max > batch {
		max = batch
	}
	d.expireLocked()
	if len(d.ring) == 0 {
		return "", nil, nil, d.count[pointDone] == d.total
	}
	j := d.ringSearchLocked(d.rr)
	if j == len(d.ring) {
		j = 0
	}
	c := d.ring[j]
	cs := c.live
	d.rr = (c.id + 1) % len(d.camps)
	want := min(max, cs.count[pointPending])

	d.seq++
	d.granted++
	id = fmt.Sprintf("lease-%d", d.seq)
	now := d.now()
	l := &lease{id: id, worker: worker, deadline: now.Add(d.ttl), granted: now, camp: c}
	if d.tracer != nil {
		// The lease span roots this batch's timeline; each granted
		// point's queue wait is booked as a completed "enqueue" child.
		_, l.span = d.tracer.Start(context.Background(), "lease",
			tracing.A("lease", id),
			tracing.A("worker", worker),
			tracing.AInt("points", want))
	}
	for k := cs.cursor; len(indexes) < want; k++ {
		if cs.state[k] != pointPending {
			continue
		}
		i := c.base + k
		indexes = append(indexes, i)
		points = append(points, cs.points[k])
		if d.queueWait != nil {
			d.queueWait.Observe(now.Sub(cs.enqueued[k]).Seconds())
		}
		if d.tracer != nil {
			d.tracer.Record("enqueue", l.span.Context(), cs.enqueued[k], now,
				tracing.AInt("point", i),
				tracing.A("bench", cs.points[k].Bench))
		}
		d.setLocked(c, k, pointLeased)
		cs.cursor = k + 1 // nothing below is pending any more
	}
	l.indexes = indexes
	d.leases[id] = l
	return id, indexes, points, false
}

// LeaseContext returns the trace context of a live lease's span, so
// the HTTP plane can hand it to the worker in the X-Trace-Context
// response header; the zero SpanContext when the lease is gone or
// tracing is off.
func (d *dispatch) LeaseContext(id string) tracing.SpanContext {
	d.mu.Lock()
	defer d.mu.Unlock()
	if l, ok := d.leases[id]; ok {
		return l.span.Context()
	}
	return tracing.SpanContext{}
}

// Renew extends a lease's deadline; it reports false when the lease
// has already expired (its points may be leased to someone else — the
// caller should abandon the batch).
func (d *dispatch) Renew(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	l, ok := d.leases[id]
	if !ok {
		return false
	}
	l.deadline = d.now().Add(d.ttl)
	return true
}

// Complete marks the given points done and releases the lease. It is
// deliberately permissive: an unknown (expired) lease still completes
// its points, because completion only ever follows a durable store
// write — the late worker's results are real, and simulation is
// deterministic, so whichever worker publishes first wins bytes that
// are identical anyway. Points of retired campaigns are already done;
// out-of-range indexes report an error.
//
// A PARTIAL completion — indexes covering only some of the lease's
// points (or none) — returns the rest to the queue as of this call: a
// worker that could execute only part of its batch (e.g. the
// remainder names a backend it lacks) hands the leftovers back for a
// capable worker without waiting out the TTL.
func (d *dispatch) Complete(id string, indexes []int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRangeLocked(indexes); err != nil {
		return err
	}
	for _, i := range indexes {
		if c, k := d.locateLocked(i); c.live != nil {
			d.setLocked(c, k, pointDone)
		}
	}
	l := d.leases[id]
	d.observeLocked(l, len(indexes))
	if l != nil {
		d.requeueLocked(l)
		if len(indexes) == 0 {
			d.forfeited++
			endLeaseSpanLocked(l, "forfeited")
		} else {
			d.completed++
			l.span.SetAttr("completed", strconv.Itoa(len(indexes)))
			endLeaseSpanLocked(l, "completed")
		}
	}
	delete(d.leases, id)
	d.expireLocked()
	return nil
}

// Release returns the given points of a live lease to the queue
// without marking them done, keeping the lease (and its heartbeat)
// alive for the rest — a worker that can execute only part of its
// batch hands the remainder back BEFORE simulating, so capable
// workers can claim it while the batch runs. Unknown or expired
// leases are a no-op: expiry has already released everything.
func (d *dispatch) Release(id string, indexes []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	l, ok := d.leases[id]
	if !ok {
		return
	}
	c := l.camp
	l.indexes = slices.DeleteFunc(l.indexes, func(i int) bool {
		if c.live == nil || !slices.Contains(indexes, i) || c.live.state[i-c.base] != pointLeased {
			return false
		}
		d.setLocked(c, i-c.base, pointPending)
		d.releasedPts++
		return true
	})
}

// Done exposes point i's completion latch (closed for every point of a
// retired campaign).
func (d *dispatch) Done(i int) <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, k := d.locateLocked(i); c.live != nil {
		return c.live.done[k]
	}
	return closedLatch
}

// Batch reports the batch size the next lease would be granted at.
func (d *dispatch) Batch() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.effectiveBatchLocked()
}

// LeaseInfo describes one live lease for observability surfaces.
type LeaseInfo struct {
	Lease, Worker   string
	Points          int
	ExpiresInMillis int64
}

// DispatchStats is a snapshot of the queue for /v1/statsz.
type DispatchStats struct {
	// Points and Done count over every campaign ever enqueued; Leased,
	// Pending and Held over the live ones.
	Points, Done, Leased, Pending int
	// Held counts declared-but-unarrived open-loop points; Campaigns
	// counts campaigns enqueued over the queue's lifetime and
	// ActiveCampaigns those with incomplete points.
	Held                       int
	Campaigns, ActiveCampaigns int
	Leases                     int
	ExpiredLeases              int64
	// GrantedLeases counts Lease grants; CompletedLeases counts
	// Completes that reported work; ForfeitedLeases counts Completes
	// with no indexes (a worker handing a whole batch back);
	// ReleasedPoints counts points returned to the queue by Release.
	GrantedLeases, CompletedLeases  int64
	ForfeitedLeases, ReleasedPoints int64
	// EffectiveBatch is the size the next lease would be granted at;
	// MeanPointMillis is the observed per-point latency EWMA feeding
	// adaptive batch sizing (0 until a lease completes).
	EffectiveBatch  int
	MeanPointMillis int64
	ActiveLeases    []LeaseInfo
}

// activeLeases lists the live leases (sweeping expired ones first) —
// the one statsz ingredient that carries identity (worker, deadline) a
// counter cannot.
func (d *dispatch) activeLeases() []LeaseInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	now := d.now()
	out := make([]LeaseInfo, 0, len(d.leases))
	for _, l := range d.leases {
		out = append(out, LeaseInfo{
			Lease: l.id, Worker: l.worker, Points: len(l.indexes),
			ExpiresInMillis: l.deadline.Sub(now).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lease < out[j].Lease })
	return out
}

// lockedRead wraps a read for func-backed instruments: take d.mu and
// sweep expired leases first, so a scrape of an idle coordinator
// reports crashed workers' leases as expired — never as live —
// exactly as /v1/statsz does. (Safe at scrape time: the registry
// invokes callbacks without its own lock held.)
func (d *dispatch) lockedRead(read func() float64) func() float64 {
	return func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.expireLocked()
		return read()
	}
}

// registerBackendLocked registers one backend's plan/done gauges over
// its lifetime counters, which campaigns enqueued later keep adding
// to. Caller holds d.mu.
func (d *dispatch) registerBackendLocked(b string, bc *backendCount) {
	d.reg.GaugeFunc("campaignd_points", "plan points by simulation backend",
		d.lockedRead(func() float64 { return float64(bc.points) }), metrics.L("backend", b))
	d.reg.GaugeFunc("campaignd_points_done", "plan points completed (result durably in the store) by backend",
		d.lockedRead(func() float64 { return float64(bc.done) }), metrics.L("backend", b))
}

// registerMetrics exposes the queue on reg as func-backed instruments,
// so the dispatch state under d.mu stays the single source of truth.
// The per-backend plan/done gauges are what lets a scraper reconcile
// campaign progress against merged-CSV accounting; backends appearing
// in campaigns enqueued later register their series lazily.
func (d *dispatch) registerMetrics(reg *metrics.Registry) {
	d.mu.Lock()
	d.reg = reg
	d.queueWait = reg.Histogram("campaignd_queue_wait_seconds",
		"seconds a plan point waited in the queue before being leased", metrics.DurationBuckets)
	for b, bc := range d.backends {
		d.registerBackendLocked(b, bc)
	}
	d.mu.Unlock()
	locked := d.lockedRead
	for _, g := range []struct {
		name, help string
		src        *int
	}{
		{"campaignd_queue_pending", "plan points waiting to be leased", &d.count[pointPending]},
		{"campaignd_points_leased", "plan points owned by live leases", &d.count[pointLeased]},
		{"campaignd_points_held", "open-loop plan points declared but not yet arrived", &d.count[pointHeld]},
		{"campaignd_campaigns_active", "enqueued campaigns with incomplete points", &d.live},
	} {
		src := g.src
		reg.GaugeFunc(g.name, g.help, locked(func() float64 { return float64(*src) }))
	}
	reg.GaugeFunc("campaignd_leases_live", "live (unexpired) leases",
		locked(func() float64 { return float64(len(d.leases)) }))
	reg.GaugeFunc("campaignd_lease_batch", "points the next lease would be granted",
		locked(func() float64 { return float64(d.effectiveBatchLocked()) }))
	reg.GaugeFunc("campaignd_point_seconds_ewma", "observed per-point completion latency EWMA feeding adaptive batch sizing",
		locked(func() float64 { return d.pointSec }))
	for _, c := range []struct {
		name, help string
		src        *int64
	}{
		{"campaignd_leases_granted_total", "leases granted to workers", &d.granted},
		{"campaignd_leases_completed_total", "leases completed with work reported", &d.completed},
		{"campaignd_leases_forfeited_total", "leases handed back whole (empty Complete)", &d.forfeited},
		{"campaignd_leases_expired_total", "leases expired by TTL (points returned to the queue)", &d.expired},
		{"campaignd_points_released_total", "points a live lease returned to the queue unrun", &d.releasedPts},
	} {
		src := c.src
		reg.CounterFunc(c.name, c.help, locked(func() float64 { return float64(*src) }))
	}
	reg.CounterFunc("campaignd_campaigns_total", "campaigns enqueued over the coordinator's lifetime",
		locked(func() float64 { return float64(len(d.camps)) }))
}

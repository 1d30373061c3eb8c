package main

// Layer instrumentation that lives entirely in the benchmark: spans
// recorded around the calls the benchmark makes into each layer, a
// timing wrapper around campaignd's HTTP handler, a timing wrapper
// around the run store, and the self-time ledger computed from the
// recorded spans. Nothing here reaches inside the program.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sharedicache/internal/campaignd"
	"sharedicache/internal/core"
	"sharedicache/internal/runstore"
	"sharedicache/internal/tracing"
)

// newTracer returns the benchmark's in-memory span buffer, sized so a
// whole traced run fits without dropping spans.
func newTracer() *tracing.Tracer {
	return tracing.New(tracing.Config{Process: "perfbench", Capacity: 1 << 18})
}

// samples collects durations (or any values) under a lock.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(v float64) {
	s.mu.Lock()
	s.xs = append(s.xs, v)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// routes are the campaignd endpoints the HTTP tap reports, in report
// order.
var routes = []string{"lease", "complete", "renew", "run_get", "run_put", "enqueue", "status", "csv", "arrive"}

// routeOf names the campaignd route a request addresses ("" for the
// routes the benchmark does not report, such as the handshake).
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/lease":
		return "lease"
	case r.Method == http.MethodPost && p == "/v1/complete":
		return "complete"
	case r.Method == http.MethodPost && p == "/v1/renew":
		return "renew"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/run/"):
		return "run_get"
	case r.Method == http.MethodPut && strings.HasPrefix(p, "/v1/run/"):
		return "run_put"
	case r.Method == http.MethodPost && p == "/v1/campaign":
		return "enqueue"
	case strings.HasPrefix(p, "/v1/campaign/") && strings.HasSuffix(p, "/csv"):
		return "csv"
	case strings.HasPrefix(p, "/v1/campaign/") && strings.HasSuffix(p, "/arrive"):
		return "arrive"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/campaign/"):
		return "status"
	}
	return ""
}

// workerRoutes are sent by the worker; their spans nest under the
// worker's run span, since the single worker blocks on each of them.
var workerRoutes = map[string]bool{"lease": true, "complete": true, "renew": true, "run_get": true, "run_put": true}

type routeStat struct {
	durs   []float64
	errors int
}

// httpTap wraps campaignd's Server.Handler. It always reports each
// durable store-plane write (a PUT answered 204) to onPut, which is
// how the service workload sees campaign completion without polling.
// With a tracer it also times every route, records a span per
// request and counts leases that granted no points.
type httpTap struct {
	next  http.Handler
	tr    *tracing.Tracer
	onPut func(hash string)

	// worker is the span context of the live worker run, the parent of
	// worker-route spans.
	worker atomic.Pointer[tracing.SpanContext]

	mu                  sync.Mutex
	routes              map[string]*routeStat
	leases, emptyLeases int
}

func newHTTPTap(next http.Handler, tr *tracing.Tracer, onPut func(string)) *httpTap {
	return &httpTap{next: next, tr: tr, onPut: onPut, routes: map[string]*routeStat{}}
}

// statusWriter records the status code and, when body is set, a copy
// of the response body.
type statusWriter struct {
	http.ResponseWriter
	status int
	body   *bytes.Buffer
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.body != nil {
		w.body.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

func (t *httpTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	if t.tr == nil {
		t.next.ServeHTTP(sw, r)
		t.observePut(route, sw.status, r)
		return
	}
	ctx := r.Context()
	if sc := t.worker.Load(); sc != nil && workerRoutes[route] {
		ctx = tracing.ContextWith(ctx, *sc)
	}
	if route == "lease" {
		sw.body = &bytes.Buffer{}
	}
	name := "campaignd.http." + route
	if route == "" {
		name = "campaignd.http.other"
	}
	_, span := t.tr.Start(ctx, name)
	start := time.Now()
	t.next.ServeHTTP(sw, r.WithContext(ctx))
	d := time.Since(start)
	span.End()
	t.observePut(route, sw.status, r)
	if route == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.routes[route]
	if st == nil {
		st = &routeStat{}
		t.routes[route] = st
	}
	st.durs = append(st.durs, d.Seconds())
	// A 404 on GET /v1/run/{hash} is a store miss, not an error.
	if sw.status >= 400 && !(route == "run_get" && sw.status == http.StatusNotFound) {
		st.errors++
	}
	if route == "lease" && sw.status == http.StatusOK {
		var g campaignd.LeaseGrant
		if json.Unmarshal(sw.body.Bytes(), &g) == nil {
			t.leases++
			if len(g.Points) == 0 {
				t.emptyLeases++
			}
		}
	}
}

func (t *httpTap) observePut(route string, status int, r *http.Request) {
	if route == "run_put" && status == http.StatusNoContent && t.onPut != nil {
		t.onPut(strings.TrimPrefix(r.URL.Path, "/v1/run/"))
	}
}

// setWorker makes sc the parent of subsequent worker-route spans.
func (t *httpTap) setWorker(sc tracing.SpanContext) { t.worker.Store(&sc) }

// report adds the per-route metrics and the empty-lease share.
func (t *httpTap) report(m metricSet) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range routes {
		st := t.routes[name]
		if st == nil {
			st = &routeStat{}
		}
		m.setN("http."+name+"_s", median(st.durs), len(st.durs))
		m.set("http."+name+".count", float64(len(st.durs)))
		m.set("http."+name+".errors", float64(st.errors))
	}
	if t.leases > 0 {
		m.setN("lease.empty_frac", float64(t.emptyLeases)/float64(t.leases), t.leases)
	}
}

// storeTap is an experiments.ResultStore around *runstore.Store that
// times every Get and Put and, with a tracer, records them as runstore
// spans under the caller's span.
type storeTap struct {
	inner      *runstore.Store
	tr         *tracing.Tracer
	gets, puts samples
}

func (s *storeTap) Get(k runstore.Key) (*core.Result, bool) {
	return s.GetCtx(context.Background(), k)
}

func (s *storeTap) Put(k runstore.Key, res *core.Result) error {
	return s.PutCtx(context.Background(), k, res)
}

func (s *storeTap) GetCtx(ctx context.Context, k runstore.Key) (*core.Result, bool) {
	_, span := s.tr.Start(ctx, "runstore.get")
	start := time.Now()
	res, ok := s.inner.Get(k)
	s.gets.add(time.Since(start).Seconds())
	span.End()
	return res, ok
}

func (s *storeTap) PutCtx(ctx context.Context, k runstore.Key, res *core.Result) error {
	_, span := s.tr.Start(ctx, "runstore.put")
	start := time.Now()
	err := s.inner.Put(k, res)
	s.puts.add(time.Since(start).Seconds())
	span.End()
	return err
}

func (s *storeTap) Stats() runstore.Stats { return s.inner.Stats() }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (total int64, files int, err error) {
	err = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		files++
		return nil
	})
	return total, files, err
}

// layerNames are this repository's modules as the ledger reports them;
// a span's layer is its name up to the first dot.
var layerNames = []string{"synth", "core", "experiments", "runstore", "sweep", "campaignd", "tracing"}

// ledger is each layer's self time: the span's duration minus the part
// of its interval covered by its child spans, summed per layer.
func ledger(spans []tracing.Span) map[string]float64 {
	children := map[string][]tracing.Span{}
	for _, sp := range spans {
		if sp.ParentID != "" {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		}
	}
	self := map[string]float64{}
	for _, sp := range spans {
		layer, _, _ := strings.Cut(sp.Name, ".")
		covered := coveredMicros(sp.Start, sp.Start+sp.Dur, children[sp.SpanID])
		self[layer] += float64(sp.Dur-covered) / 1e6
	}
	return self
}

// coveredMicros is how much of [lo, hi) the union of the spans covers.
func coveredMicros(lo, hi int64, spans []tracing.Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, sp := range spans {
		a, b := max(sp.Start, lo), min(sp.Start+sp.Dur, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := int64(0), lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// writeLedger prints each layer's self time and its share of wall.
func writeLedger(w io.Writer, self map[string]float64, wall float64) {
	fmt.Fprintf(w, "layer ledger (self time; share of %.3fs wall, may exceed 1 with parallel work):\n", wall)
	for _, l := range layerNames {
		fmt.Fprintf(w, "  %-12s %9.4fs  %6.3f\n", l, self[l], self[l]/wall)
	}
}

// exportTrace writes the recorded spans as Chrome trace-event JSON
// through internal/tracing's exporter, itself timed as the tracing
// layer.
func exportTrace(tr *tracing.Tracer, path string) error {
	_, span := tr.Start(context.Background(), "tracing.export")
	spans := tr.Spans()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracing.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	span.End()
	return f.Close()
}

package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/metrics"
	"sharedicache/internal/runstore"
	"sharedicache/internal/simreport"
	"sharedicache/internal/tracing"
)

// callLog counts the requests a coordinator serves by method and
// route, so tests can pin which calls the workers make.
type callLog struct {
	mu    sync.Mutex
	calls map[string]int
}

func newCallLog() *callLog { return &callLog{calls: map[string]int{}} }

func (c *callLog) wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := r.URL.Path
		if strings.HasPrefix(route, "/v1/run/") {
			route = "/v1/run/{hash}"
		}
		c.mu.Lock()
		c.calls[r.Method+" "+route]++
		c.mu.Unlock()
		inner.ServeHTTP(w, r)
	})
}

// workerCalls are the only requests a worker sends: the handshake, the
// lease plane and the store plane. Telemetry has no route of its own.
var workerCalls = map[string]bool{
	"GET /v1/campaign":   true,
	"POST /v1/lease":     true,
	"POST /v1/renew":     true,
	"POST /v1/release":   true,
	"POST /v1/complete":  true,
	"GET /v1/run/{hash}": true,
	"PUT /v1/run/{hash}": true,
}

// checkWorkerCalls fails unless every logged call is a worker call and
// exactly one Complete went out per executed lease.
func (c *callLog) checkWorkerCalls(t *testing.T, leases int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for call, n := range c.calls {
		if !workerCalls[call] {
			t.Errorf("workers sent %d × %s; telemetry must ride Complete", n, call)
		}
	}
	if got := c.calls["POST /v1/complete"]; got != leases {
		t.Errorf("workers sent %d Completes for %d executed leases, want one each", got, leases)
	}
}

// TestCompleteWireUnchangedWithoutTelemetry pins that a Complete with
// no spans and no reports encodes as the lease and its indexes alone,
// so untraced, unreported campaigns pay nothing for telemetry.
func TestCompleteWireUnchangedWithoutTelemetry(t *testing.T) {
	raw, err := json.Marshal(completeRequest{Lease: "lease-7", Indexes: []int{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"Lease":"lease-7","Indexes":[3,4]}`; string(raw) != want {
		t.Fatalf("Complete body = %s, want %s", raw, want)
	}
}

// TestCompleteBodyBound pins the headroom of the Complete body bound:
// a full adaptive batch (maxAdaptiveBatch points), traced and
// reported, encodes to under a quarter of maxCompleteBytes, and a
// tracing, reporting coordinator ingests such a body whole. The batch
// is built from the real spans and reports of traced detailed
// simulations, repeated under fresh identities up to the batch size.
func TestCompleteBodyBound(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runner := testRunner(t)
	runner.SetStore(store)
	tr := tracing.New(tracing.Config{Process: "worker-bound"})
	col := simreport.NewCollector()
	runner.SetTracer(tr)
	runner.SetReporter(col)
	sample := []experiments.Point{
		{Bench: "FT", Cfg: core.DefaultConfig()},
		{Bench: "UA", Cfg: sharedCfg(8, 16, 2)},
	}
	if _, err := runner.Plan(sample...).RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	spans, reports := tr.Drain(), col.Drain()
	if len(spans) == 0 || len(reports) != len(sample) {
		t.Fatalf("sample batch recorded %d spans and %d reports", len(spans), len(reports))
	}

	var req completeRequest
	req.Lease = "lease-1"
	req.Spans = append(req.Spans, tracing.Span{TraceID: tr.TraceID(), SpanID: "batch", Name: "worker.batch"})
	for rep := 0; len(req.Indexes) < maxAdaptiveBatch; rep++ {
		suffix := fmt.Sprintf("-%d", rep)
		for _, sp := range spans {
			sp.SpanID += suffix
			if sp.ParentID != "" {
				sp.ParentID += suffix
			}
			req.Spans = append(req.Spans, sp)
		}
		for _, r := range reports {
			r.Key += suffix
			req.Reports = append(req.Reports, r)
			req.Indexes = append(req.Indexes, len(req.Indexes))
		}
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) >= maxCompleteBytes/4 {
		t.Fatalf("a %d-point traced, reported Complete is %d bytes, want under %d (a quarter of the bound)",
			len(req.Indexes), len(raw), maxCompleteBytes/4)
	}
	t.Logf("%d-point Complete: %d bytes (%d spans, %d reports)", len(req.Indexes), len(raw), len(req.Spans), len(req.Reports))

	// The coordinator accepts the body whole. No lease is named, so
	// only the telemetry takes effect.
	coordTr := tracing.New(tracing.Config{Process: "coordinator"})
	coordCol := simreport.NewCollector()
	_, hs, _ := testServer(t, testPoints(), func(cfg *ServerConfig) {
		cfg.Tracer = coordTr
		cfg.Reports = coordCol
	})
	req.Lease, req.Indexes = "", nil
	raw, err = json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/complete", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("full-batch Complete = %s, want 204", resp.Status)
	}
	if coordCol.Len() != len(req.Reports) || coordTr.Len() != len(req.Spans) {
		t.Fatalf("coordinator ingested %d reports and %d spans, want %d and %d",
			coordCol.Len(), coordTr.Len(), len(req.Reports), len(req.Spans))
	}
}

// blackholeRenewals fails every renewal of the named lease without a
// Gone verdict, as a partition between worker and coordinator would.
func blackholeRenewals(lease string) func(http.Handler) http.Handler {
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/renew" {
				body, _ := io.ReadAll(r.Body)
				if strings.Contains(string(body), `"`+lease+`"`) {
					http.Error(w, "injected renew outage", http.StatusServiceUnavailable)
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			inner.ServeHTTP(w, r)
		})
	}
}

// batchSpanFor finds the worker.batch span recorded for a lease.
func batchSpanFor(spans []tracing.Span, lease string) (tracing.Span, bool) {
	for _, sp := range spans {
		if sp.Name != "worker.batch" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "lease" && a.Value == lease {
				return sp, true
			}
		}
	}
	return tracing.Span{}, false
}

// TestAbandonedBatchTelemetryRidesNextComplete runs the blackholed-
// renewal scenario against a tracing coordinator: the abandoned
// batch sends no Complete, yet its worker.batch span must reach the
// merged timeline through the worker's next Complete, and the lost
// lease is booked as expired, never as completed or forfeited.
func TestAbandonedBatchTelemetryRidesNextComplete(t *testing.T) {
	registerMolassesStub()
	tr := tracing.New(tracing.Config{Process: "coordinator"})
	pts := []experiments.Point{{Bench: "FT", Cfg: core.DefaultConfig(), Backend: "molasses-sim"}}
	srv, hs := wrapCoordinator(t, pts,
		func(cfg *ServerConfig) {
			cfg.TTL = 250 * time.Millisecond
			cfg.Tracer = tr
		},
		blackholeRenewals("lease-1"))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	w := Worker{URL: hs.URL, ID: "partitioned", Parallelism: 1, Metrics: metrics.NewRegistry()}
	rep, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostLeases != 1 || rep.Leases != 2 || rep.Points != 1 {
		t.Fatalf("report = %+v, want 1 lost lease of 2 and 1 completed point", rep)
	}
	if _, ok := batchSpanFor(tr.Spans(), "lease-1"); !ok {
		t.Fatal("the abandoned batch's worker.batch span never reached the coordinator")
	}
	if _, ok := batchSpanFor(tr.Spans(), "lease-2"); !ok {
		t.Fatal("the completed batch's worker.batch span never reached the coordinator")
	}
	st := srv.Stats().Dispatch
	if st.CompletedLeases != 1 || st.ForfeitedLeases != 0 || st.ExpiredLeases != 1 {
		t.Fatalf("dispatch = %+v, want lease-1 expired and only lease-2 completed", st)
	}
}

// TestAbandonedBatchTelemetryAfterDone is the stolen-batch variant: a
// second worker steals the abandoned batch and finishes the campaign,
// so the partitioned worker's next lease answers Done with its
// abandoned batch's telemetry still buffered. It must deliver it in
// one final Complete that names the abandoned lease and no points,
// which the coordinator books as nothing at all.
func TestAbandonedBatchTelemetryAfterDone(t *testing.T) {
	registerMolassesStub()
	tr := tracing.New(tracing.Config{Process: "coordinator"})
	pts := []experiments.Point{{Bench: "FT", Cfg: core.DefaultConfig(), Backend: "molasses-sim"}}
	granted := make(chan struct{})
	stolen := make(chan struct{})
	var grantOnce, stealOnce sync.Once
	var partitionedLeases atomic.Int64
	calls := newCallLog()
	srv, hs := wrapCoordinator(t, pts,
		func(cfg *ServerConfig) {
			cfg.TTL = 250 * time.Millisecond
			cfg.Tracer = tr
		},
		func(inner http.Handler) http.Handler {
			inner = calls.wrap(blackholeRenewals("lease-1")(inner))
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/v1/lease":
					body, _ := io.ReadAll(r.Body)
					r.Body = io.NopCloser(bytes.NewReader(body))
					if strings.Contains(string(body), `"partitioned"`) {
						// The partitioned worker leases only once the
						// thief has completed the stolen batch.
						if partitionedLeases.Add(1) > 1 {
							<-stolen
						}
						inner.ServeHTTP(w, r)
						grantOnce.Do(func() { close(granted) })
						return
					}
				case "/v1/complete":
					inner.ServeHTTP(w, r)
					stealOnce.Do(func() { close(stolen) })
					return
				}
				inner.ServeHTTP(w, r)
			})
		})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	type result struct {
		rep WorkerReport
		err error
	}
	partitioned := make(chan result, 1)
	go func() {
		w := Worker{URL: hs.URL, ID: "partitioned", Parallelism: 1}
		rep, err := w.Run(ctx)
		partitioned <- result{rep, err}
	}()
	<-granted
	thief := Worker{URL: hs.URL, ID: "thief", Parallelism: 1}
	trep, err := thief.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p := <-partitioned
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.rep.LostLeases != 1 || p.rep.Leases != 1 || p.rep.Points != 0 {
		t.Fatalf("partitioned worker report = %+v, want its one lease lost and no points", p.rep)
	}
	if trep.Points != 1 {
		t.Fatalf("thief report = %+v, want the stolen point", trep)
	}
	if _, ok := batchSpanFor(tr.Spans(), "lease-1"); !ok {
		t.Fatal("the abandoned batch's worker.batch span never reached the coordinator")
	}
	// Two Completes reached the coordinator (the thief's and the final
	// telemetry one), yet only the thief's lease is booked.
	calls.mu.Lock()
	completes := calls.calls["POST /v1/complete"]
	calls.mu.Unlock()
	if completes != 2 {
		t.Fatalf("coordinator saw %d Completes, want the thief's and one final telemetry Complete", completes)
	}
	st := srv.Stats().Dispatch
	if st.CompletedLeases != 1 || st.ForfeitedLeases != 0 || st.ExpiredLeases != 1 {
		t.Fatalf("dispatch = %+v, want lease-1 expired and only the thief's lease completed", st)
	}
}

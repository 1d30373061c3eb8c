package campaignd

// Tests for campaign retirement — the coordinator's memory and
// per-lease work follow its live campaigns, not its history — and the
// fuzz target for the campaign-spec decode/expand path.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"sharedicache/internal/experiments"
	"sharedicache/internal/runstore"
)

// liveFootprint counts the campaigns still holding per-point state and
// the content addresses the queue still indexes.
func liveFootprint(d *dispatch) (live, hashes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.camps {
		if c.live != nil {
			live++
		}
	}
	return live, len(d.byHash)
}

// TestDispatchRetiresCompletedCampaigns pins the retirement bound:
// after 1,000 completed campaigns the queue holds per-point state and
// content-address entries only for the live one, the lifetime totals
// on Stats and /metrics still count every campaign, late completions
// and arrivals naming retired points are no-ops (while indexes past
// the end stay errors), and a retired campaign's CSV — re-expanded
// from its spec — is byte-identical to a local sweep.
func TestDispatchRetiresCompletedCampaigns(t *testing.T) {
	srv, hs, _ := testServer(t, nil, nil)
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The first campaign runs on a worker; the 999 identical ones after
	// it complete at enqueue from the warm store and retire at once.
	want, rows := localSweepCSV(t, campaignSpace("FT"))
	first, err := client.Enqueue(ctx, CampaignSpec{Name: "ft-0", Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	w := Worker{URL: hs.URL, ID: "w1", Parallelism: 2}
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	const retired = 1000
	last := first
	for k := 1; k < retired; k++ {
		if last, err = client.Enqueue(ctx, CampaignSpec{Name: fmt.Sprintf("ft-%d", k), Rows: rows}); err != nil {
			t.Fatal(err)
		}
	}
	// One live open-loop campaign: its baseline is pending, its rows held.
	_, uaRows := localSweepCSV(t, campaignSpace("UA"))
	open, err := client.Enqueue(ctx, CampaignSpec{Name: "ua-open", Rows: uaRows, Open: true})
	if err != nil {
		t.Fatal(err)
	}

	if live, hashes := liveFootprint(srv.d); live != 1 || hashes != open.Points {
		t.Fatalf("queue holds %d live campaigns and %d content addresses, want 1 and %d (the open campaign's)",
			live, hashes, open.Points)
	}

	// Lifetime totals count every campaign, retired or not.
	wantPoints := retired*first.Points + open.Points
	st := srv.Stats().Dispatch
	if st.Campaigns != retired+2 || st.ActiveCampaigns != 1 ||
		st.Points != wantPoints || st.Done != retired*first.Points ||
		st.Pending != 1 || st.Held != 2 || st.Leased != 0 {
		t.Fatalf("dispatch stats = %+v, want %d campaigns (1 active), %d points, %d done, 1 pending, 2 held",
			st, retired+2, wantPoints, retired*first.Points)
	}
	prom := scrapeProm(t, hs.URL+"/metrics")
	for name, v := range map[string]float64{
		"campaignd_campaigns_total":                 retired + 2,
		"campaignd_campaigns_active":                1,
		`campaignd_points{backend="detailed"}`:      float64(wantPoints),
		`campaignd_points_done{backend="detailed"}`: float64(retired * first.Points),
		"campaignd_points_held":                     2,
		"campaignd_queue_pending":                   1,
	} {
		if prom[name] != v {
			t.Fatalf("/metrics %s = %v, want %v", name, prom[name], v)
		}
	}

	// Late calls naming a retired point change nothing; an index past
	// the end of every campaign is still an error.
	if err := srv.d.Complete("lease-gone", []int{0}); err != nil {
		t.Fatalf("late Complete of a retired point: %v", err)
	}
	if err := srv.d.markArrived([]int{1}); err != nil {
		t.Fatalf("late arrival of a retired point: %v", err)
	}
	if err := client.Arrive(ctx, last.ID, []int{0}, 0); err != nil {
		t.Fatalf("late /arrive on a retired campaign: %v", err)
	}
	if after := srv.Stats().Dispatch; after.Done != st.Done || after.Pending != st.Pending {
		t.Fatalf("late calls moved the queue: %+v -> %+v", st, after)
	}
	if err := srv.d.Complete("", []int{wantPoints}); err == nil {
		t.Fatal("completion past the end accepted")
	}
	if err := srv.d.markArrived([]int{wantPoints}); err == nil {
		t.Fatal("arrival past the end accepted")
	}

	for _, id := range []int{first.ID, last.ID} {
		status, err := client.CampaignStatus(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !status.Complete || status.Done != first.Points || status.Rows != len(rows) {
			t.Fatalf("retired campaign %d status = %+v", id, status)
		}
		got, err := client.CampaignCSV(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("retired campaign %d CSV differs from the local sweep:\ngot:\n%s\nwant:\n%s", id, got, want)
		}
	}
}

// retiredCoordinator builds a coordinator (no HTTP listener) whose
// queue has already completed and retired n five-point campaigns —
// four detailed rows plus their baseline, drawn round-robin from a
// 72-point grid — completed through the store plane's completeHash,
// as PUTs would.
func retiredCoordinator(tb testing.TB, n int) *Server {
	tb.Helper()
	store, err := runstore.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	runner, err := experiments.NewRunner(testOptions())
	if err != nil {
		tb.Fatal(err)
	}
	runner.SetStore(store)
	srv, err := New(ServerConfig{Runner: runner, Store: store, Batch: DefaultBatch})
	if err != nil {
		tb.Fatal(err)
	}
	var grid []PointSpec
	for _, cpc := range []int{2, 4, 8} {
		for _, kb := range []int{8, 16, 32, 64} {
			for _, lb := range []int{2, 4, 8} {
				for _, bus := range []int{1, 2} {
					grid = append(grid, PointSpec{Bench: "FT", CPC: cpc, KB: kb, LB: lb, Bus: bus})
				}
			}
		}
	}
	for k := 0; k < n; k++ {
		spec := CampaignSpec{Name: fmt.Sprintf("c%d", k)}
		for j := 0; j < 4; j++ {
			spec.Rows = append(spec.Rows, grid[(4*k+j)%len(grid)])
		}
		enqueueAndComplete(tb, srv, spec)
	}
	return srv
}

// enqueueAndComplete expands and enqueues spec, then completes every
// point by content address.
func enqueueAndComplete(tb testing.TB, srv *Server, spec CampaignSpec) {
	points, rows, err := srv.buildCampaign(spec)
	if err != nil {
		tb.Fatal(err)
	}
	hashes, backends, err := srv.planKeys(points)
	if err != nil {
		tb.Fatal(err)
	}
	srv.d.enqueue(&spec, rows, points, hashes, backends, nil)
	for _, h := range hashes {
		srv.d.completeHash(h)
	}
}

// TestRetiredCampaignFootprint bounds what a retired campaign costs
// the coordinator: 1,000 completed five-point campaigns must leave
// well under 2 KiB of live heap each (the record, its spec and the
// lifetime counters), where keeping their per-point state cost ~6 KB.
func TestRetiredCampaignFootprint(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	srv := retiredCoordinator(t, 1000)
	after := heap()
	runtime.KeepAlive(srv)
	if live, hashes := liveFootprint(srv.d); live != 0 || hashes != 0 {
		t.Fatalf("%d live campaigns and %d content addresses after every campaign completed", live, hashes)
	}
	per := (int64(after) - int64(before)) / 1000
	t.Logf("%d bytes of heap per retired campaign", per)
	if per > 2048 {
		t.Fatalf("each retired campaign holds %d bytes of heap, want <= 2048", per)
	}
}

// BenchmarkLeaseRetired times one lease -> complete -> empty-lease
// cycle (enqueue of a fresh five-point campaign included) behind 0,
// 1,000 and 8,000 retired campaigns: the cycle must not grow with the
// coordinator's history. heap-MB reports the live heap after the
// retired campaigns were built.
func BenchmarkLeaseRetired(b *testing.B) {
	for _, n := range []int{0, 1000, 8000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			srv := retiredCoordinator(b, n)
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			spec := CampaignSpec{Rows: []PointSpec{
				{Bench: "UA", CPC: 2, KB: 16, LB: 4, Bus: 1}, {Bench: "UA", CPC: 4, KB: 16, LB: 4, Bus: 1},
				{Bench: "UA", CPC: 8, KB: 16, LB: 4, Bus: 1}, {Bench: "UA", CPC: 8, KB: 32, LB: 4, Bus: 2},
			}}
			points, rows, err := srv.buildCampaign(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fresh content addresses per cycle, so nothing dedups.
				hashes := make([]string, len(points))
				backends := make([]string, len(points))
				for k := range hashes {
					hashes[k] = fmt.Sprintf("cycle-%d-%d", i, k)
					backends[k] = experiments.DefaultBackend
				}
				srv.d.enqueue(&spec, rows, points, hashes, backends, nil)
				id, idx, _, _ := srv.d.Lease("w", 0)
				if len(idx) != len(points) {
					b.Fatalf("leased %d points, want %d", len(idx), len(points))
				}
				if err := srv.d.Complete(id, idx); err != nil {
					b.Fatal(err)
				}
				if _, idx, _, done := srv.d.Lease("w", 0); len(idx) != 0 || !done {
					b.Fatalf("drained queue leased %v done=%v", idx, done)
				}
			}
			b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap-MB")
		})
	}
}

// FuzzCampaignSpec feeds arbitrary bytes to POST /v1/campaign on an
// in-process coordinator: decoding and expansion must never panic, and
// every spec the server accepts must expand through sweep.Expand into
// rows whose baseline precedes their point inside the plan.
func FuzzCampaignSpec(f *testing.F) {
	// The specs the CI multi-campaign smoke submits: `sweep -submit`
	// of a UA space and `sweep -replay` of an FT burst trace.
	smoke := func(name, bench string, open bool) []byte {
		spec := CampaignSpec{Name: name, Open: open, Rows: []PointSpec{
			{Bench: bench, CPC: 2, KB: 16, LB: 4, Bus: 1},
			{Bench: bench, CPC: 8, KB: 16, LB: 4, Bus: 1},
		}}
		raw, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	f.Add(smoke("sweep-submit", "UA", false))
	f.Add(smoke("sweep-replay", "FT", true))
	f.Add([]byte(`{"Backend":"analytical","Rows":[{"Bench":"FT","CPC":4,"KB":32,"LB":2,"Bus":2,"Backend":"detailed"}]}`))
	f.Add([]byte(`{"Rows":[{"Bench":"FT","CPC":3,"KB":16,"LB":4,"Bus":1}]}`))
	f.Add([]byte(`{"Rows":[]}`))
	f.Add([]byte(`not json`))

	store, err := runstore.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	runner, err := experiments.NewRunner(testOptions())
	if err != nil {
		f.Fatal(err)
	}
	runner.SetStore(store)
	f.Fuzz(func(t *testing.T, body []byte) {
		// A fresh coordinator per input keeps the queue from growing
		// over the fuzzing run.
		srv, err := New(ServerConfig{Runner: runner, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaign", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return
		}
		var reply EnqueueReply
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("accepted spec got a malformed reply: %v", err)
		}
		var spec CampaignSpec // decoded as the server does: the first JSON value
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
			t.Fatalf("server accepted a spec that does not decode: %v", err)
		}
		points, rows, err := srv.buildCampaign(spec)
		if err != nil {
			t.Fatalf("accepted spec does not expand: %v", err)
		}
		if len(points) != reply.Points || len(rows) != len(spec.Rows) {
			t.Fatalf("expansion = %d points / %d rows, reply %d points for %d spec rows",
				len(points), len(rows), reply.Points, len(spec.Rows))
		}
		for _, m := range rows {
			if !(0 <= m.BaseIdx && m.BaseIdx < m.PointIdx && m.PointIdx < len(points)) {
				t.Fatalf("row %+v indexes outside its %d-point plan", m, len(points))
			}
			if points[m.BaseIdx].Bench != m.Bench || points[m.PointIdx].Bench != m.Bench {
				t.Fatalf("row %+v points at another benchmark's plan slots", m)
			}
		}
	})
}

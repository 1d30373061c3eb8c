package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"sharedicache/internal/campaignd"
	"sharedicache/internal/experiments"
	"sharedicache/internal/runstore"
	"sharedicache/internal/tracing"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so sorting matters
		}
		return xs
	}
	if _, _, ok := tailPercentile(ramp(10)); ok {
		t.Fatal("10 samples cannot support a tail with 10 beyond it")
	}
	for _, tc := range []struct {
		n, p int
		v    float64
	}{
		{11, 9, 1},    // rank 1, ten beyond
		{20, 50, 10},  // rank 10, ten beyond
		{100, 90, 90}, // p91 would leave nine
		{1000, 99, 990},
	} {
		p, v, ok := tailPercentile(ramp(tc.n))
		if !ok || p != tc.p || v != tc.v {
			t.Errorf("n=%d: got p%d=%v ok=%v, want p%d=%v", tc.n, p, v, ok, tc.p, tc.v)
		}
		if beyond := tc.n - nearestRank(p, tc.n); beyond < 10 {
			t.Errorf("n=%d: p%d leaves %d samples beyond", tc.n, p, beyond)
		}
		if beyond := tc.n - nearestRank(p+1, tc.n); p < 99 && beyond >= 10 {
			t.Errorf("n=%d: p%d is not the highest percentile with ten beyond", tc.n, p)
		}
	}
}

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a, err := schedule(7, 6*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule(7, 6*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different schedules")
	}
	c, err := schedule(8, 6*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same campaign mix")
	}
	// The arrival times depend on the rates alone, not on the seed.
	if len(a) != len(c) {
		t.Fatalf("schedule length depends on the seed: %d vs %d", len(a), len(c))
	}
	for i := range a {
		if a[i].due != c[i].due || a[i].rate != c[i].rate {
			t.Fatalf("campaign %d: arrival differs across seeds", i)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("campaign %d arrives before campaign %d", i, i-1)
		}
	}
}

// TestCampaignSpecsExpand enqueues every campaign the schedule
// generates at a serving coordinator: each must be accepted and expand
// to the points the benchmark tracks.
func TestCampaignSpecsExpand(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := experiments.NewRunner(analyticalOptions())
	if err != nil {
		t.Fatal(err)
	}
	r.SetStore(st)
	srv, err := campaignd.New(campaignd.ServerConfig{Runner: r, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client, err := campaignd.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2} {
		plan, err := schedule(seed, 4*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range plan {
			spec, hashes := campaignSpec(r, p.space)
			reply, err := client.Enqueue(context.Background(), spec)
			if err != nil {
				t.Fatalf("seed %d campaign %d (%+v): %v", seed, i, p.space, err)
			}
			if reply.Points != len(hashes) || len(spec.Rows) != 4 {
				t.Fatalf("seed %d campaign %d: %d points, %d rows; tracking %d hashes",
					seed, i, reply.Points, len(spec.Rows), len(hashes))
			}
		}
	}
}

func TestLedgerSubtractsChildCoverage(t *testing.T) {
	spans := []tracing.Span{
		{SpanID: "a", Name: "campaignd.worker.run", Start: 0, Dur: 100},
		{SpanID: "b", ParentID: "a", Name: "campaignd.http.lease", Start: 10, Dur: 20},
		{SpanID: "c", ParentID: "a", Name: "campaignd.http.run_put", Start: 20, Dur: 30},
		{SpanID: "d", ParentID: "c", Name: "runstore.put", Start: 25, Dur: 10},
		{SpanID: "e", ParentID: "a", Name: "core.run", Start: 90, Dur: 40}, // overruns its parent
	}
	self := ledger(spans)
	// a: 100 - |[10,50) ∪ [90,100)| = 50; b: 20; c: 30-10 = 20; d: 10; e: 40.
	want := map[string]float64{"campaignd": 90e-6, "runstore": 10e-6, "core": 40e-6}
	for layer, v := range want {
		if got := self[layer]; got < v-1e-12 || got > v+1e-12 {
			t.Errorf("%s self time %v, want %v", layer, got, v)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// lists the benchmark prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, have)
	}
	for _, tc := range []struct {
		what string
		json []def
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got []def
		for _, d := range tc.defs {
			got = append(got, def{d.name, d.unit, d.better})
		}
		if !reflect.DeepEqual(tc.json, got) {
			t.Errorf("%s: BENCHMARK.json %v\nbenchmark %v", tc.what, tc.json, got)
		}
	}
}

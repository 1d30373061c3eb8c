package sweep

import (
	"reflect"
	"strings"
	"testing"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
)

func testRunner(t *testing.T) *experiments.Runner {
	t.Helper()
	opts := experiments.DefaultOptions()
	opts.Instructions = 20_000
	opts.Benchmarks = []string{"FT", "UA"}
	r, err := experiments.NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSpaceBuild pins the plan construction both drivers share: per
// benchmark one baseline followed by the valid shared cross product,
// row metadata pointing at the right plan slots, and the invalid
// combinations (cpc 1, cpc not dividing the worker count, rejected
// configs) silently skipped.
func TestSpaceBuild(t *testing.T) {
	r := testRunner(t)
	sp := Space{
		Benches:     []string{"FT", "UA"},
		CPCs:        []int{1, 2, 3, 8}, // 1 and 3 are invalid for 8 workers
		SizesKB:     []int{16, 32},
		LineBuffers: []int{4},
		Buses:       []int{1, 2},
	}
	plan, rows := sp.Build(r)

	// 2 valid cpcs x 2 sizes x 1 lb x 2 buses = 8 shared points per
	// benchmark, plus one baseline each.
	wantRows := 2 * 8
	if len(rows) != wantRows {
		t.Fatalf("built %d rows, want %d", len(rows), wantRows)
	}
	if plan.Len() != wantRows+2 {
		t.Fatalf("plan has %d points, want %d", plan.Len(), wantRows+2)
	}

	points := plan.Points()
	for _, m := range rows {
		if m.CPC == 1 || m.CPC == 3 {
			t.Fatalf("invalid cpc %d survived into the rows", m.CPC)
		}
		base := points[m.BaseIdx]
		if base.Bench != m.Bench || base.Cfg.Organization != core.OrgPrivate {
			t.Fatalf("row %v baseline is %s/%v, want its own private baseline", m, base.Bench, base.Cfg.Organization)
		}
		pt := points[m.PointIdx]
		if pt.Bench != m.Bench || pt.Cfg.CPC != m.CPC || pt.Cfg.ICache.SizeBytes != m.KB<<10 ||
			pt.Cfg.LineBuffers != m.LB || pt.Cfg.Buses != m.Bus {
			t.Fatalf("row %+v does not describe plan point %+v", m, pt.Cfg)
		}
		if m.BaseIdx >= m.PointIdx {
			t.Fatalf("row %+v: baseline must precede its design point in plan order", m)
		}
	}

	// Rows are in plan (= emission) order.
	for i := 1; i < len(rows); i++ {
		if rows[i-1].PointIdx >= rows[i].PointIdx {
			t.Fatal("rows out of plan order")
		}
	}
}

// TestCSVHeader pins the column schema both drivers emit — by default
// exactly the historical one (the byte-identity guarantees rest on
// it), and with a backend column inserted after the benchmark when a
// backend was explicitly selected.
func TestCSVHeader(t *testing.T) {
	var sb strings.Builder
	c := NewCSV(&sb, 8)
	if err := c.Header(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "benchmark,cpc,size_kb,line_buffers,buses,time_ratio,worker_mpki,access_ratio,bus_avg_wait,area_ratio,energy_ratio\n"
	if sb.String() != want {
		t.Fatalf("header = %q, want %q", sb.String(), want)
	}

	sb.Reset()
	c = NewCSV(&sb, 8)
	c.IncludeBackendColumn()
	if err := c.Header(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	want = "benchmark,backend,cpc,size_kb,line_buffers,buses,time_ratio,worker_mpki,access_ratio,bus_avg_wait,area_ratio,energy_ratio\n"
	if sb.String() != want {
		t.Fatalf("backend header = %q, want %q", sb.String(), want)
	}
}

// TestSpaceBackendStampsPoints pins the backend plumbing: a Space with
// a backend stamps every plan point (baseline included, so the
// normalisation is backend-consistent) and every row, and the Flags
// default leaves all of it empty.
func TestSpaceBackendStampsPoints(t *testing.T) {
	r := testRunner(t)
	sp := Space{
		Benches: []string{"FT"}, CPCs: []int{8}, SizesKB: []int{16},
		LineBuffers: []int{4}, Buses: []int{2}, Backend: "analytical",
	}
	plan, rows := sp.Build(r)
	for i, pt := range plan.Points() {
		if pt.Backend != "analytical" {
			t.Fatalf("point %d backend = %q, want analytical", i, pt.Backend)
		}
	}
	for _, m := range rows {
		if m.Backend != "analytical" {
			t.Fatalf("row %+v lost the backend stamp", m)
		}
	}

	// A default space leaves the points unstamped (the campaign rule
	// applies) but labels rows with the backend that rule resolves to,
	// so an enabled backend column never mislabels a row.
	sp.Backend = ""
	plan, rows = sp.Build(r)
	for _, pt := range plan.Points() {
		if pt.Backend != "" {
			t.Fatal("default space stamped a backend")
		}
	}
	if rows[0].Backend != "detailed" {
		t.Fatalf("default row backend = %q, want the resolved campaign backend", rows[0].Backend)
	}

	ana, err := experiments.NewRunner(func() experiments.Options {
		o := experiments.DefaultOptions()
		o.Instructions = 20_000
		o.Backend = "analytical"
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	_, rows = sp.Build(ana)
	if rows[0].Backend != "analytical" {
		t.Fatalf("row backend = %q, want the runner's campaign backend", rows[0].Backend)
	}
}

// TestExpandMatchesBuild pins the one builder both entry points share:
// expanding a space's own rows reproduces Build's plan and rows
// exactly, baselines declared at each benchmark's first row, while a
// row Build would skip — or one naming no benchmark — is an error
// instead of a silent drop.
func TestExpandMatchesBuild(t *testing.T) {
	r := testRunner(t)
	sp := Space{
		Benches: []string{"FT", "UA"}, CPCs: []int{1, 2, 8}, SizesKB: []int{16, 32},
		LineBuffers: []int{4}, Buses: []int{1, 2}, Backend: "analytical",
	}
	plan, rows := sp.Build(r)
	in := make([]Row, len(rows))
	for i, m := range rows {
		in[i] = Row{Bench: m.Bench, CPC: m.CPC, KB: m.KB, LB: m.LB, Bus: m.Bus}
	}
	xplan, xrows, err := Expand(r, sp.Backend, in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(xplan.Points(), plan.Points()) || !reflect.DeepEqual(xrows, rows) {
		t.Fatalf("Expand of Build's rows diverged:\nplan %v\nwant %v\nrows %v\nwant %v",
			xplan.Points(), plan.Points(), xrows, rows)
	}

	// A per-row override runs that row (only) on its own backend.
	_, xrows, err = Expand(r, "", []Row{{Bench: "FT", CPC: 8, KB: 16, LB: 4, Bus: 1, Backend: "analytical"}})
	if err != nil || xrows[0].Backend != "analytical" || xrows[0].BaseIdx != 0 || xrows[0].PointIdx != 1 {
		t.Fatalf("override row = %+v, %v", xrows, err)
	}

	for _, bad := range []Row{
		{Bench: "FT", CPC: 1, KB: 16, LB: 4, Bus: 1},
		{Bench: "FT", CPC: 3, KB: 16, LB: 4, Bus: 1},
		{Bench: "FT", CPC: 0, KB: 16, LB: 4, Bus: 1},
		{Bench: "FT", CPC: 2, KB: 0, LB: 4, Bus: 1},
		{CPC: 2, KB: 16, LB: 4, Bus: 1},
	} {
		if _, _, err := Expand(r, "", []Row{bad}); err == nil {
			t.Fatalf("Expand accepted %+v", bad)
		}
	}
}

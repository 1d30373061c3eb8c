// Command perfbench is the repository's benchmark: it runs one named
// workload in-process through the layers' public functions for a
// fixed time, checks the outputs, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics and the layer self-time
// ledger (traced run). The last line of standard output is the result
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through perfbench/run.sh, which
// builds this package first):
//
//	bash perfbench/run.sh --workload fig7-detailed --seed 1 --seconds 40 --trace 0
//
// See perfbench/NOTES.md for the workloads, the metric definitions and
// the known worker-exit defect the service workload works around.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"sharedicache/internal/tracing"
)

// outDir is where the benchmark keeps its scratch stores, exported
// traces and result records, relative to the repository root it runs
// from.
const outDir = ".bench_build/perfbench"

// metricDef declares one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run; every workload reports
// every one of them (BENCHMARK.json declares the same list).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"campaign_p50_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. A layer a workload does
// not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"synth.new_s", "s", "lower"},
		{"synth.warm_s", "s", "lower"},
		{"core.run_s", "s", "lower"},
		{"core.run_tail_s", "s", "lower"},
		{"core.run.count", "count", "higher"},
		{"core.ns_per_cycle", "ns", "lower"},
		{"core.ns_per_instr", "ns", "lower"},
		{"core.prewarm_s", "s", "lower"},
		{"core.busy_share", "frac", "lower"},
		{"runner.local_point_s", "s", "lower"},
		{"runner.store_point_s", "s", "lower"},
		{"runner.remote_point_s", "s", "lower"},
		{"runstore.put_s", "s", "lower"},
		{"runstore.get_s", "s", "lower"},
		{"runstore.bytes_per_entry", "bytes", "lower"},
	}
	for _, r := range routes {
		defs = append(defs,
			metricDef{"http." + r + "_s", "s", "lower"},
			metricDef{"http." + r + ".count", "count", "lower"},
			metricDef{"http." + r + ".errors", "count", "lower"})
	}
	defs = append(defs,
		metricDef{"lease.empty_frac", "frac", "lower"},
		metricDef{"dispatch.queue_wait_s", "s", "lower"},
		metricDef{"dispatch.dedup_frac", "frac", "higher"},
		metricDef{"worker.restarts", "count", "lower"},
		metricDef{"worker.lost_leases", "count", "lower"},
		metricDef{"worker.renew_failures", "count", "lower"},
		metricDef{"sweep.build_s", "s", "lower"},
		metricDef{"sweep.csv_s", "s", "lower"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
	)
	for _, l := range layerNames {
		defs = append(defs, metricDef{"self." + l + "_share", "frac", "lower"})
	}
	return defs
}()

// metricSet holds measured values by metric name, with the sample
// count behind each where it is more than one measurement.
type metricSet struct {
	vals map[string]float64
	n    map[string]int
}

func newMetricSet() metricSet {
	return metricSet{vals: map[string]float64{}, n: map[string]int{}}
}

func (m metricSet) set(name string, v float64) { m.vals[name] = v }

// setN records a value summarising n samples.
func (m metricSet) setN(name string, v float64, n int) {
	m.vals[name] = v
	m.n[name] = n
}

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds time.Duration
	// tr is nil for an untraced run.
	tr *tracing.Tracer
	// dir is a private scratch directory for stores.
	dir string
	// log receives the human-readable report lines.
	log io.Writer
}

// report is what a workload returns.
type report struct {
	attempted, failed int
	metrics           metricSet
	// checks lists every output check; a false value fails the run.
	checks []check
	// wall is the traced run's wall time, the ledger's denominator.
	wall float64
}

type check struct {
	name   string
	ok     bool
	detail string
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

type workload struct {
	name, why string
	run       func(ctx context.Context, cfg config) (*report, error)
}

var workloads = []workload{
	{"fig7-detailed", "the cycle-level simulator does nearly all the work; no store, no coordinator", runFig7},
	{"service-open", "many small overlapping campaigns arrive open-loop at a serving coordinator: dedup, store reads and lease scans", runService},
}

// result is the final output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	processStart := time.Now()
	var (
		name    = flag.String("workload", "", "workload to run: fig7-detailed or service-open")
		seed    = flag.Uint64("seed", 1, "workload seed")
		secs    = flag.Int("seconds", 20, "how long to measure, in seconds")
		traceOn = flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	)
	flag.Parse()
	if err := run(*name, *seed, *secs, *traceOn == 1, processStart); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, secs int, traced bool, processStart time.Time) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if secs < 1 {
		return fmt.Errorf("--seconds %d must be positive", secs)
	}
	dir := filepath.Join(outDir, fmt.Sprintf("work-%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	prov := provenance(seed)
	fmt.Fprintf(out, "perfbench %s (%s)\n", wl.name, wl.why)
	fmt.Fprintf(out, "host: %s\n", mustJSON(prov))

	cfg := config{seed: seed, seconds: time.Duration(secs) * time.Second, dir: dir, log: out}
	if traced {
		cfg.tr = newTracer()
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.seconds+150*time.Second)
	defer cancel()
	rep, err := wl.run(ctx, cfg)
	if err != nil {
		return err
	}
	m := rep.metrics
	if traced {
		path := filepath.Join(outDir, "trace-"+wl.name+".json")
		if err := exportTrace(cfg.tr, path); err != nil {
			return fmt.Errorf("export trace: %w", err)
		}
		spans := cfg.tr.Spans()
		// The sweep layer's calls are timed by their spans alone.
		for _, name := range []string{"sweep.build", "sweep.csv"} {
			var durs []float64
			for _, sp := range spans {
				if sp.Name == name {
					durs = append(durs, float64(sp.Dur)/1e6)
				}
			}
			m.setN(name+"_s", median(durs), len(durs))
		}
		self := ledger(spans)
		for _, l := range layerNames {
			m.set("self."+l+"_share", self[l]/rep.wall)
		}
		writeLedger(out, self, rep.wall)
		fmt.Fprintf(out, "trace: %d spans written to %s (%d dropped)\n", cfg.tr.Len(), path, cfg.tr.Dropped())
	} else {
		m.set("peak_rss_mb", peakRSSMB())
	}
	fmt.Fprintf(out, "process wall %.3fs\n", time.Since(processStart).Seconds())

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Correct: true, Metrics: map[string]jsonMetric{}}
	var missing []string
	for _, d := range defs {
		v, ok := m.vals[d.name]
		if (!ok && !traced) || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			v = 0
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		n := m.n[d.name]
		if n == 0 {
			n = 1
		}
		fmt.Fprintf(out, "metric %-28s %14.6g %-6s n=%d\n", d.name, v, d.unit, n)
	}
	// Metrics outside the declared list (workload-specific ones such as
	// the service tail) are printed too, but not in the result object.
	var extra []string
	for k := range m.vals {
		if _, declared := res.Metrics[k]; !declared {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		n := m.n[k]
		if n == 0 {
			n = 1
		}
		fmt.Fprintf(out, "metric %-28s %14.6g %-6s n=%d\n", k, m.vals[k], unitOf(k), n)
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s did not produce %s", wl.name, strings.Join(missing, ", "))
	}
	failedFrac := float64(rep.failed) / float64(max(1, rep.attempted))
	fmt.Fprintf(out, "metric %-28s %14.6g %-6s n=%d\n", "failed_frac", failedFrac, "frac", rep.attempted)
	for _, c := range rep.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAILED"
			res.Correct = false
		}
		fmt.Fprintf(out, "check %-40s %s %s\n", c.name, verdict, c.detail)
	}
	if rep.attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", wl.name)
	}
	if err := appendRecord(prov, wl.name, traced, res, m); err != nil {
		return err
	}
	fmt.Fprintln(out, mustJSON(res))
	if !res.Correct {
		out.Flush()
		return fmt.Errorf("workload %s failed its output checks", wl.name)
	}
	return nil
}

// unitOf finds a metric's unit in the declared lists or extraUnits.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return extraUnits[name]
}

// extraUnits are the units of the metrics printed beside the declared
// lists: those only one workload has, and the percentile each tail was
// taken at.
var extraUnits = map[string]string{
	"sim_minstr_per_s":  "Minstr/s",
	"points_per_s":      "1/s",
	"campaign_tail_s":   "s",
	"campaign_tail_pct": "pct",
	"max_rate_per_s":    "1/s",
	"gen_lag_tail_s":    "s",
	"gen_lag_tail_pct":  "pct",
	"core.run_tail_pct": "pct",
	"worker.restarts":   "count",
}

// hostInfo is the provenance every result record carries.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func provenance(seed uint64) hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Commit = rev
			if modified == "true" {
				h.Commit += "+modified"
			}
		}
	}
	return h
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// appendRecord appends the run's full record — provenance, every
// metric with its sample count, the verdict — to the results ledger
// file under outDir.
func appendRecord(h hostInfo, name string, traced bool, res result, m metricSet) error {
	rec := struct {
		Time     string             `json:"time"`
		Host     hostInfo           `json:"host"`
		Workload string             `json:"workload"`
		Traced   bool               `json:"traced"`
		Result   result             `json:"result"`
		All      map[string]float64 `json:"all_metrics"`
		Samples  map[string]int     `json:"samples"`
	}{time.Now().UTC().Format(time.RFC3339), h, name, traced, res, m.vals, m.n}
	f, err := os.OpenFile(filepath.Join(outDir, "results.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, mustJSON(rec)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are marshalled
	}
	return string(b)
}

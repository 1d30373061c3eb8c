// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-fig all|fig1|...|fig13|table1] [-n instr] [-workers n]
//	            [-bench BT,CG,...] [-seed s] [-cold] [-par p] [-list]
//	            [-store DIR] [-storeop index|gc]
//
// Each figure prints as an aligned text table whose rows/series match
// the paper's plot; figures that support it render rows incrementally
// as their design points complete. Simulations fan out across -par
// goroutines (default: all cores); Ctrl-C aborts the remaining design
// points cleanly. With -store DIR results persist across invocations
// in an on-disk run store, so regenerating a figure against a warm
// store simulates nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sharedicache/internal/experiments"
	"sharedicache/internal/runstore"
	"sharedicache/internal/simreport"
	"sharedicache/internal/sweep"
	"sharedicache/internal/tracing"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "experiment id (fig1..fig13, table1) or 'all'")
		n       = flag.Uint64("n", 0, "master-thread instructions per benchmark (0 = default)")
		workers = flag.Int("workers", 0, "worker core count (0 = default 8)")
		bench   = flag.String("bench", "", "comma-separated benchmark subset (default: all 24)")
		seed    = flag.Uint64("seed", 0, "workload synthesis seed (0 = default)")
		cold    = flag.Bool("cold", false, "disable steady-state cache prewarming for timing runs")
		par     = flag.Int("par", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		backend = flag.String("backend", "", "simulation backend: detailed (default) or analytical")
		format  = flag.String("format", "text", "output format: text, csv, json")
		chart   = flag.Int("chart", -1, "also render column N (0-based) as an ASCII bar chart")
		store   = flag.String("store", "", "persistent run-store directory (second cache tier)")
		storeop = flag.String("storeop", "", "run-store maintenance: 'index' or 'gc', then exit")
		trace   = flag.String("trace", "", "write a Chrome trace-event JSON span timeline to this file at exit (load in Perfetto)")
		report  = flag.String("report", "", "write per-point simulation telemetry (stall stacks, cache/bus stats, host cost) as JSON to this file at exit")
		stream  = flag.Bool("stream", true, "render supporting figures row-by-row as points complete (text format)")
		list    = flag.Bool("list", false, "list experiment ids and exit")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
	)
	flag.Parse()

	// Whole-run pprof captures (docs/PERFORMANCE.md has the recipe).
	// Like -trace, a fatal() exit skips the export.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "experiments: cpu profile written to %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "experiments: heap profile written to %s\n", *memprofile)
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := experiments.DefaultOptions()
	if *n > 0 {
		opts.Instructions = *n
	}
	if *workers > 0 {
		opts.Workers = *workers
	}
	if *seed > 0 {
		opts.Seed = *seed
	}
	if *cold {
		opts.Prewarm = false
	}
	if *par > 0 {
		opts.Parallelism = *par
	}
	if *bench != "" {
		opts.Benchmarks = strings.Split(*bench, ",")
	}
	opts.Backend = *backend

	runner, err := experiments.NewRunner(opts)
	if err != nil {
		fatal(err)
	}
	// -trace: one parent span per figure, point/store spans nested under
	// it by the runner; the timeline writes at exit.
	var tracer *tracing.Tracer
	if *trace != "" {
		tracer = tracing.New(tracing.Config{Process: "experiments"})
		runner.SetTracer(tracer)
		defer func() {
			n, err := tracing.WriteFile(*trace, tracer)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: trace:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "experiments: trace: %d spans written to %s\n", n, *trace)
		}()
	}
	// -report: one microarchitectural report per executed (or
	// store-replayed) design point, written with the campaign summary as
	// JSON at exit.
	if *report != "" {
		col := simreport.NewCollector()
		runner.SetReporter(col)
		defer func() {
			n, err := simreport.WriteFile(*report, col)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: report:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "experiments: report: %d reports written to %s\n", n, *report)
		}()
	}
	var st *runstore.Store
	if *store != "" {
		if st, err = runstore.Open(*store); err != nil {
			fatal(err)
		}
		runner.SetStore(st)
	}
	if *storeop != "" {
		if st == nil {
			fatal(errors.New("-storeop requires -store"))
		}
		if err := sweep.Maint(st, *storeop, "experiments"); err != nil {
			fatal(err)
		}
		return
	}

	var selected []experiments.Experiment
	if *fig == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*fig, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, e)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	for _, e := range selected {
		start := time.Now()
		var res experiments.Renderable
		var err error
		// Each figure is one parent span; the runner's point spans nest
		// under it through ectx. No-ops when -trace is off.
		ectx, span := tracer.Start(ctx, "experiment", tracing.A("id", e.ID))
		streamed := *format == "text" && *stream && e.Stream != nil
		if streamed {
			// Incremental rendering: print each table row the moment its
			// design points complete instead of waiting for the figure.
			fmt.Printf("%s: %s\n", e.ID, e.Title)
			res, err = e.Stream(ectx, runner, func(label string, cells ...string) {
				fmt.Printf("%-12s", label)
				for _, c := range cells {
					fmt.Printf("  %14s", c)
				}
				fmt.Println()
			})
		} else {
			res, err = e.Run(ectx, runner)
		}
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "experiments: interrupted")
				os.Exit(130)
			}
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		tbl := res.Table()
		switch {
		case streamed:
			fmt.Println()
		case *format == "text":
			fmt.Println(tbl.String())
		case *format == "csv":
			fmt.Print(tbl.CSV())
			fmt.Println()
		case *format == "json":
			raw, err := tbl.JSON()
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(raw))
		default:
			fatal(fmt.Errorf("unknown format %q (text, csv, json)", *format))
		}
		if *chart >= 0 {
			fmt.Println(tbl.Bars(*chart, 50, 1.0))
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v, %d cached runs]\n\n",
			e.ID, time.Since(start).Round(time.Millisecond), runner.CachedRuns())
	}

	// Final cache accounting: how much work the campaign actually did
	// versus resolved from the in-memory and persistent tiers.
	if *backend != "" {
		by := runner.BackendRuns()
		fmt.Fprintf(os.Stderr, "backend %s: %d simulated (detailed %d)\n",
			*backend, runner.Simulations(), by["detailed"])
	}
	if st != nil {
		s := st.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d simulated, %d store hits, %d store misses, %d store writes\n",
			runner.Simulations(), s.Hits, s.Misses, s.Writes)
	} else {
		fmt.Fprintf(os.Stderr, "cache: %d simulated, %d distinct points in memory\n",
			runner.Simulations(), runner.CachedRuns())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

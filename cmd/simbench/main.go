// Command simbench runs the repository's hot-path micro-benchmarks
// (task insertion, end-to-end task churn, the simulated-task queue
// protocol) outside the `go test` harness and writes the results as JSON,
// together with the contention-counter profile accumulated during the run
// (wakeups, parks, quiescence kicks — see internal/perf).
//
// The benchmark-regression workflow:
//
//	simbench -o BENCH_simbench.json                  # record current numbers
//	simbench -baseline BENCH_simbench.json -check 10 # fail on >10% regression
//	simbench -compare BENCH_simbench.json            # shorthand for the above
//
// A baseline file is simply a previous simbench output; the comparison
// block in the new output records baseline, current and delta per
// benchmark (negative delta = faster). CI runs the same suite via
// `go test -bench 'Insert|SimTask|Churn'` and archives this tool's JSON
// as the artifact benchstat comparisons start from.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"runtime"
	"testing"

	"supersim/internal/bench"
	"supersim/internal/perf"
)

type report struct {
	GoVersion string              `json:"go_version"`
	GOOS      string              `json:"goos"`
	GOARCH    string              `json:"goarch"`
	CPUs      int                 `json:"cpus"`
	Benchtime string              `json:"benchtime"`
	Results   []bench.MicroResult `json:"results"`
	// Contention is the perf-counter profile summed over the whole run.
	Contention *perf.Snapshot `json:"contention,omitempty"`
	// Comparison is present when -baseline was given.
	Comparison []comparison `json:"comparison,omitempty"`
}

type comparison struct {
	Name            string  `json:"name"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
	CurrentNsPerOp  float64 `json:"current_ns_per_op"`
	// DeltaPct is (current - baseline) / baseline * 100; negative = faster.
	DeltaPct float64 `json:"delta_pct"`
	// BaselineMissing marks a benchmark absent from the baseline file — a
	// newly added entry. Never counted as a regression: the first run after
	// adding a benchmark records its number instead of failing the gate.
	BaselineMissing bool `json:"baseline_missing,omitempty"`
	// NotRun marks a baseline entry this run produced no result for — a
	// retired or renamed benchmark, or one the run's selection left out.
	// Never counted as a regression; CurrentNsPerOp is 0.
	NotRun bool `json:"not_run,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("simbench: ")
	testing.Init() // register the testing flags so -test.benchtime exists
	var (
		out          = flag.String("o", "BENCH_simbench.json", "output JSON path (- for stdout)")
		benchtime    = flag.String("benchtime", "1s", "per-benchmark measuring time (as in go test -benchtime)")
		baselinePath = flag.String("baseline", "", "previous simbench JSON to compare against")
		check        = flag.Float64("check", 0, "with -baseline: exit non-zero if any benchmark regresses by more than this percent")
		run          = flag.String("run", "", "regexp selecting benchmarks by name (default: all)")
		contention   = flag.Bool("contention", true, "collect and emit the contention-counter profile")
		compare      = flag.String("compare", "", "regression gate: -baseline PATH with -check 10 (unless -check is set)")
		parallelism  = flag.Int("parallelism", 0, "cap the ReplayParallelN benchmarks at this degree (0 = run all)")
	)
	flag.Parse()
	if *compare != "" {
		if *baselinePath != "" && *baselinePath != *compare {
			log.Fatal("-compare and -baseline disagree; use one")
		}
		*baselinePath = *compare
		if *check == 0 {
			*check = 10
		}
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		log.Fatalf("invalid -benchtime %q: %v", *benchtime, err)
	}
	var filter *regexp.Regexp
	if *run != "" {
		re, err := regexp.Compile(*run)
		if err != nil {
			log.Fatalf("invalid -run %q: %v", *run, err)
		}
		filter = re
	}
	if *check > 0 && *baselinePath == "" {
		log.Fatal("-check requires -baseline")
	}

	var counters *perf.Counters
	if *contention {
		counters = &perf.Counters{}
	}
	results := bench.RunMicroMax(filter, counters, *parallelism)
	if len(results) == 0 {
		log.Fatalf("no benchmarks match -run %q", *run)
	}
	rep := report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Benchtime: *benchtime,
		Results:   results,
	}
	if counters != nil {
		snap := counters.Snapshot()
		rep.Contention = &snap
	}

	var outcome compareOutcome
	if *baselinePath != "" {
		base, err := loadBaseline(*baselinePath)
		if err != nil {
			log.Fatalf("baseline: %v", err)
		}
		outcome = compareAgainstBaseline(results, base, *check, os.Stderr)
		rep.Comparison = outcome.Comparison
	}
	for _, r := range results {
		fmt.Fprintf(os.Stderr, "%-28s %12d iters %10.1f ns/op %8d B/op %4d allocs/op\n",
			r.Name, r.Iterations, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("encode: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatalf("write %s: %v", *out, err)
	}
	outcome.summarizeMissing(os.Stderr, *baselinePath)
	if outcome.Regressions > 0 {
		log.Fatalf("%d benchmark(s) regressed more than %.1f%% vs %s", outcome.Regressions, *check, *baselinePath)
	}
}

// loadBaseline reads a previous simbench report and indexes ns/op by name.
func loadBaseline(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	out := make(map[string]float64, len(rep.Results))
	for _, r := range rep.Results {
		out[r.Name] = r.NsPerOp
	}
	return out, nil
}

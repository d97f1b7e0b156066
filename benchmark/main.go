// Command benchmark is the repository's layered end-to-end benchmark. It
// boots the library, the replay engine, a journaled simd and a simcoord
// cluster in this process on loopback, drives seven named workloads in
// closed loops, checks every result against a reference computed through
// a different path, and reports end-to-end metrics (tracing off) and
// per-layer metrics (a separate traced run) by name.
//
// Every layer is measured from outside: by timing HTTP calls and calls
// into the layers' exported functions. See README.md beside this file.
//
//	go run ./benchmark -seed 1                        # every workload, both runs
//	go run ./benchmark -workload serve-hit -trace 0   # one run; last line is its JSON
//	go run ./benchmark -agree a.json b.json           # compare two result files
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded with every result file: numbers taken on
// different core counts or filesystems are not comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Filesystem string `json:"filesystem"`
	Seconds    int    `json:"seconds"`
}

// results is the file a run writes and -agree reads.
type results struct {
	Env  environment `json:"env"`
	Runs []runResult `json:"runs"`
}

func currentEnvironment(outDir string, seconds int) environment {
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Filesystem: filesystemOf(outDir), Seconds: seconds,
	}
}

func printEnvironment(e environment) {
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s commit=%s fs=%s seconds=%d\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Filesystem, e.Seconds)
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the acceptance driver's checkout is not a repository
	}
	return strings.TrimSpace(string(out))
}

// report prints one run: every metric as "workload metric value unit",
// then the run as one JSON object — the line the acceptance driver reads
// as the last of standard output.
func report(r runResult, defs []metricDef) error {
	for _, d := range defs {
		fmt.Printf("%s %s %.6g %s\n", r.Workload, d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	if !r.Trace {
		fmt.Printf("%s error_rate %.6g ratio (%d failed of %d attempted, %d latency samples)\n",
			r.Workload, float64(r.Failed)/float64(max(1, r.Attempted)), r.Failed, r.Attempted, r.Samples)
	}
	line, err := json.Marshal(r.driverLine)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOne performs a single run in this process: the shape the acceptance
// driver invokes.
func runOne(def *workloadDef, seed uint64, seconds int, traced bool, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	sc, err := newScratch(outDir, def.name)
	if err != nil {
		return err
	}
	defer sc.remove()
	env := &runEnv{seed: seed, seconds: seconds, scratch: sc}
	printEnvironment(currentEnvironment(outDir, seconds))
	if traced {
		r, err := runTraced(def, env, outDir)
		if err != nil {
			return err
		}
		return report(r, perLayer)
	}
	r, err := runUntraced(def, env)
	if err != nil {
		return err
	}
	return report(r, endToEnd)
}

// runChild performs one run in a process of its own and returns what its
// last line reported. A run leaves a process changed — a heap grown to
// serve-miss's 300 MB slows lib-direct by a sixth afterwards — so runs
// that are to be compared never share one, just as the acceptance
// driver's do not.
func runChild(def *workloadDef, seed uint64, seconds int, traced bool, outDir string) (runResult, error) {
	res := runResult{Workload: def.name, Seed: seed, Trace: traced}
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	mode := "0"
	if traced {
		mode = "1"
	}
	cmd := exec.Command(exe, "-workload", def.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", mode, "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	var last string
	lines := bufio.NewScanner(out)
	lines.Buffer(nil, 1<<20)
	for lines.Scan() {
		last = lines.Text()
		fmt.Println(last)
	}
	if err := cmd.Wait(); err != nil {
		return res, err
	}
	if err := json.Unmarshal([]byte(last), &res.driverLine); err != nil {
		return res, fmt.Errorf("last line of the run is not its result: %w", err)
	}
	return res, nil
}

func run() error {
	workload := flag.String("workload", "", "run only this workload (default: all seven)")
	seed := flag.Uint64("seed", 1, "seed of every generated input: key orders, matrix and replica seeds")
	seconds := flag.Int("seconds", 10, "length of the measured window (1..60)")
	traceMode := flag.Int("trace", -1, "0: end-to-end run, tracing off; 1: traced per-layer run; -1: both")
	runs := flag.Int("runs", 1, "repeat with seeds seed, seed+1, ... (for run-to-run spread)")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory for results.json, span files and server data dirs")
	agree := flag.Bool("agree", false, "compare two result files given as arguments instead of running")
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			return fmt.Errorf("-agree takes two result files")
		}
		return agreeFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("-seconds must be in 1..60")
	}
	defs := workloads
	if *workload != "" {
		def := findWorkload(*workload)
		if def == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		defs = []workloadDef{*def}
	}
	var modes []bool
	if *traceMode != 1 {
		modes = append(modes, false)
	}
	if *traceMode != 0 {
		modes = append(modes, true)
	}
	if len(defs) == 1 && len(modes) == 1 && *runs == 1 {
		return runOne(&defs[0], *seed, *seconds, modes[0], *outDir)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	all := results{Env: currentEnvironment(*outDir, *seconds)}
	for i := 0; i < *runs; i++ {
		for d := range defs {
			for _, traced := range modes {
				r, err := runChild(&defs[d], *seed+uint64(i), *seconds, traced, *outDir)
				if err != nil {
					return fmt.Errorf("%s (seed %d): %w", defs[d].name, *seed+uint64(i), err)
				}
				all.Runs = append(all.Runs, r)
			}
		}
	}
	raw, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(*outDir, "results.json"), raw, 0o644)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

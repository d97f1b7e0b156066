// Command sim regenerates the paper's figures and the fault-resilience
// study, one subcommand per experiment, and writes EXPERIMENTS.md:
//
//	sim dag -alg qr -nt 4 -dot qr4.dot           # Fig. 1 (-list: Fig. 2)
//	sim dag -alg cholesky -nt 6 -capture c6.dag  # capture + encode a frame
//	sim dag -in c6.dag -validate -dot -          # report, replay, draw a frame
//	sim kernels -alg cholesky                    # Figs. 3-4: kernel fits
//	sim race -trials 200                         # Fig. 5: the scheduling race
//	sim trace -out traces/                       # Figs. 6-7: real vs simulated
//	sim perf -sched quark -alg qr                # Figs. 8-10: GFLOP/s sweeps
//	sim fault -scenario mixed -panic 0.05        # fault-resilience study
//	sim report -out EXPERIMENTS.md               # every registry entry + Summary
//
// The spec flags (-alg -sched -nt -nb -workers -seed -timeout) mean the
// same in every subcommand that takes them; each keeps its own defaults,
// scaled for pure-Go kernels (the paper: nb 180-200 on 48 cores). Results
// print through the experiment registry's renderers (bench.Section).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"supersim/internal/bench"
	"supersim/internal/core"
	"supersim/internal/fault"
	"supersim/internal/kernels"
	"supersim/internal/replay"
	"supersim/internal/trace"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintln(os.Stderr, "sim:", err)
		os.Exit(1)
	}
}

// command is one subcommand: flags declares its flags on fs and returns
// the body that runs once fs is parsed.
type command struct {
	name  string
	flags func(fs *flag.FlagSet) func(stdout io.Writer) error
}

var commands = []command{
	{"dag", dagCmd}, {"fault", faultCmd}, {"kernels", kernelsCmd},
	{"perf", perfCmd}, {"race", raceCmd}, {"report", reportCmd}, {"trace", traceCmd},
}

// run executes the subcommand named by args[0] with the flags that follow,
// writing its report to stdout.
func run(args []string, stdout io.Writer) error {
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
		if len(args) > 0 && args[0] == c.name {
			fs := flag.NewFlagSet("sim "+c.name, flag.ContinueOnError)
			body := c.flags(fs)
			if err := fs.Parse(args[1:]); err != nil {
				return err
			}
			return body(stdout)
		}
	}
	if len(args) == 0 {
		return fmt.Errorf("usage: sim <%s> [flags]", strings.Join(names, "|"))
	}
	return fmt.Errorf("unknown subcommand %q (want %s)", args[0], strings.Join(names, ", "))
}

// spec holds the shared spec flags. A subcommand fills in its defaults,
// then declares the flags it reads (TestFlagDefaults pins each set).
type spec struct {
	alg, sched      string
	nt, nb, workers int
	seed            uint64
	timeout         time.Duration
}

func (s *spec) declare(fs *flag.FlagSet, names ...string) {
	for _, n := range names {
		switch n {
		case "alg":
			fs.StringVar(&s.alg, n, s.alg, "algorithm: qr, cholesky or lu")
		case "sched":
			fs.StringVar(&s.sched, n, s.sched, "scheduler: quark, starpu or ompss")
		case "nt":
			fs.IntVar(&s.nt, n, s.nt, "tiles per dimension")
		case "nb":
			fs.IntVar(&s.nb, n, s.nb, "tile size")
		case "workers":
			fs.IntVar(&s.workers, n, s.workers, "virtual cores")
		case "seed":
			fs.Uint64Var(&s.seed, n, s.seed, "workload seed")
		case "timeout":
			fs.DurationVar(&s.timeout, n, s.timeout, "wall-clock watchdog per run; a wedged run aborts with a diagnostic dump (0 disables)")
		}
	}
}

func (s *spec) bench() bench.Spec {
	return bench.Spec{Algorithm: s.alg, Scheduler: s.sched, NT: s.nt, NB: s.nb, Workers: s.workers, Seed: s.seed, StallDeadline: s.timeout}
}

// dagCmd draws Figs. 1-2 from a fresh capture of -alg/-nt or a .dag frame,
// through one report and one DOT writer.
func dagCmd(fs *flag.FlagSet) func(io.Writer) error {
	s := spec{alg: "qr", nt: 4, sched: "ompss"}
	s.declare(fs, "alg", "nt", "sched")
	list := fs.Bool("list", false, "print the serial task stream (Fig. 2 style)")
	dot := fs.String("dot", "", "write Graphviz DOT to this file ('-' for stdout)")
	capture := fs.String("capture", "", "capture -alg/-nt under -sched and write the encoded .dag frame to this file")
	in := fs.String("in", "", "read a .dag frame instead of generating from -alg/-nt")
	validate := fs.Bool("validate", false, "with -in: replay the frame and print its fingerprint")
	return func(w io.Writer) error {
		if *capture != "" {
			arena, err := bench.CaptureArena(bench.Spec{Algorithm: s.alg, Scheduler: s.sched, NT: s.nt, NB: 8, Workers: 8, Seed: 1})
			if err != nil {
				return err
			}
			frame := arena.Frame()
			if err := os.WriteFile(*capture, frame, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "%s: %d tasks, %d edges, %d bytes -> %s\n", s.alg, arena.NumTasks(), arena.NumEdges(), len(frame), *capture)
			return nil
		}
		var report bench.DAGReport
		var arena *replay.Arena // the loaded frame, with -in
		if *in != "" {
			raw, err := os.ReadFile(*in)
			if err != nil {
				return err
			}
			if arena, err = replay.Load(raw); err != nil {
				return fmt.Errorf("%s: invalid frame: %w", *in, err)
			}
			fmt.Fprintf(w, "%s: valid frame, %d bytes\n", *in, len(raw))
			fmt.Fprintf(w, "DAG %s, %d handles, captured at %d workers\n", arena.Label(), arena.Handles(), arena.Workers())
			report = bench.ArenaReport(arena, arena.Label())
		} else {
			var err error
			if report, err = bench.DAGExperiment(s.alg, s.nt); err != nil {
				return err
			}
			fmt.Fprintf(w, "DAG of tile %s, %dx%d tiles\n", s.alg, s.nt, s.nt)
		}
		if err := report.Section().WriteText(w); err != nil {
			return err
		}
		if *validate && arena != nil {
			tr, err := replay.RunArena(arena, replay.Options{Workers: arena.Workers(), Model: core.FixedModel(1e-3), Seed: 1})
			if err != nil {
				return fmt.Errorf("%s: frame does not replay: %w", *in, err)
			}
			fmt.Fprintf(w, "  replay: %d events, makespan %.6g, fingerprint %016x\n", len(tr.Events), tr.Makespan(), tr.Fingerprint())
		}
		if *list && arena == nil {
			lines, err := bench.TaskListExperiment(s.alg, s.nt)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\nserial task stream (%d tasks):\n%s\n", len(lines), strings.Join(lines, "\n"))
		}
		switch *dot {
		case "":
		case "-":
			fmt.Fprint(w, report.DOT)
		default:
			if err := os.WriteFile(*dot, []byte(report.DOT), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "\nDOT written to %s (render with: dot -Tpdf %s)\n", *dot, *dot)
		}
		return nil
	}
}

// faultCmd runs each scheduler clean and under the fault scenarios, whose
// plans follow from -faultseed alone: the same flags print the same table.
func faultCmd(fs *flag.FlagSet) func(io.Writer) error {
	s := spec{alg: "cholesky", nt: 10, nb: 120, workers: 8, seed: 42, timeout: 30 * time.Second}
	s.declare(fs, "alg", "nt", "nb", "workers", "seed", "timeout")
	seed := fs.Uint64("faultseed", 1, "fault-plan seed")
	scenario := fs.String("scenario", "", "run a single custom scenario with the -panic/-transient/-straggler/\n-stall/-deadcores rates instead of the default suite")
	var custom fault.Rates
	fs.Float64Var(&custom.Panic, "panic", 0, "custom scenario: per-task panic probability")
	fs.Float64Var(&custom.Transient, "transient", 0, "custom scenario: per-task transient-failure probability")
	fs.Float64Var(&custom.Straggler, "straggler", 0, "custom scenario: per-task straggler probability")
	fs.Float64Var(&custom.Stall, "stall", 0, "custom scenario: per-task wall-clock stall probability")
	deadCores := fs.Int("deadcores", 0, "custom scenario: virtual cores killed before the run")
	retries := fs.Int("retries", 2, "custom scenario: retry budget per task")
	return func(w io.Writer) error {
		scenarios := bench.DefaultFaultScenarios(*seed)
		if *scenario != "" {
			scenarios = []bench.FaultScenario{{
				Name:       *scenario,
				Fault:      fault.Config{Seed: *seed, Default: custom, DeadCores: *deadCores},
				MaxRetries: *retries,
			}}
		}
		fmt.Fprintf(w, "fault resilience: %s NT=%d NB=%d on %d cores (fault seed %d)\n\n", s.alg, s.nt, s.nb, s.workers, *seed)
		points, err := bench.FaultStudy(s.bench(), bench.FaultModel(s.alg, s.nb), scenarios)
		if werr := bench.FaultSection(points).WriteText(w); err == nil {
			err = werr
		}
		return err
	}
}

// kernelsCmd fits normal, gamma and log-normal models to measured kernel
// times and prints one class's density series and the per-class fits.
func kernelsCmd(fs *flag.FlagSet) func(io.Writer) error {
	s := spec{alg: "qr", nt: 8, nb: 120, workers: 8, sched: "quark", seed: 42}
	s.declare(fs, "alg", "nt", "nb", "workers", "sched", "seed")
	class := fs.String("class", "", "kernel class to plot (default: DTSMQR for qr, DGEMM otherwise)")
	bins := fs.Int("bins", 20, "histogram bins")
	return func(w io.Writer) error {
		target := kernels.Class(*class)
		if target == "" {
			target = kernels.ClassGEMM
			if s.alg == "qr" {
				target = kernels.ClassTSMQR
			}
		}
		report, err := bench.KernelFitExperiment(s.bench(), target, *bins)
		if err != nil {
			return err
		}
		return report.Section().WriteText(w)
	}
}

// perfCmd prints real vs simulated GFLOP/s over matrix sizes per scheduler
// (OmpSs = Fig. 8, StarPU = Fig. 9, QUARK = Fig. 10): the paper claims
// errors of a few percent, worst at the smallest sizes.
func perfCmd(fs *flag.FlagSet) func(io.Writer) error {
	s := spec{nb: 200, workers: 8, seed: 42}
	s.declare(fs, "sched", "alg", "nb", "workers", "seed")
	maxNT := fs.Int("maxnt", 8, "largest matrix size in tiles")
	return func(w io.Writer) error {
		schedulers, algorithms := bench.Schedulers, []string{"qr", "cholesky"}
		if s.sched != "" {
			schedulers = []string{s.sched}
		}
		if s.alg != "" {
			algorithms = []string{s.alg}
		}
		var sweeps bench.Section
		for _, sc := range schedulers {
			for _, alg := range algorithms {
				res, err := bench.PerfSweep(sc, alg, s.nb, *maxNT, s.workers, s.seed)
				if err != nil {
					return err
				}
				sweeps.Tables = append(sweeps.Tables, res.Section().Tables...)
			}
		}
		return sweeps.WriteText(w)
	}
}

// raceCmd counts, per wait policy, how often Fig. 5's task C starts late:
// the Task Execution Queue race that QUARK's quiescence query eliminates.
func raceCmd(fs *flag.FlagSet) func(io.Writer) error {
	s := spec{sched: "quark", workers: 2, timeout: 30 * time.Second}
	s.declare(fs, "sched", "timeout")
	trials := fs.Int("trials", 200, "trials per policy")
	return func(w io.Writer) error {
		fmt.Fprint(w, "Fig. 5 scenario: 2 cores; A(1.0s) and B(1.5s) start at t=0; C(1.0s) depends on A.\n",
			"correct trace: C starts at 1.0, makespan 2.0; raced trace: C starts at 1.5, makespan 2.5\n\n")
		sec, err := bench.RaceStudy(s.bench(), *trials)
		if err != nil {
			return err
		}
		return sec.WriteText(w)
	}
}

// reportCmd runs every entry of the experiment registry and writes the
// Markdown report with its computed Summary: EXPERIMENTS.md is
// `sim report -out EXPERIMENTS.md`.
func reportCmd(fs *flag.FlagSet) func(io.Writer) error {
	out := fs.String("out", "-", "output file ('-' for stdout)")
	quick := fs.Bool("quick", false, "small problem sizes for a fast smoke report")
	return func(w io.Writer) error {
		sizes := bench.FullSizes
		if *quick {
			sizes = bench.QuickSizes
		}
		var b bytes.Buffer
		if err := bench.WriteReport(&b, sizes); err != nil {
			return err
		}
		if *out == "-" {
			_, err := w.Write(b.Bytes())
			return err
		}
		return os.WriteFile(*out, b.Bytes(), 0o644)
	}
}

// traceCmd compares a measured run with its simulation and, with -out,
// writes both traces as SVG on one time axis and as text. The paper's
// run is -alg qr -nt 22 -nb 180 -workers 48.
func traceCmd(fs *flag.FlagSet) func(io.Writer) error {
	s := spec{alg: "qr", sched: "quark", nt: 8, nb: 180, workers: 16, seed: 42}
	s.declare(fs, "alg", "sched", "nt", "nb", "workers", "seed")
	out := fs.String("out", "", "directory for SVG and text traces (omit to skip files)")
	return func(w io.Writer) error {
		bs := s.bench()
		fmt.Fprintf(w, "tracing %s on %s: N=%d (%dx%d tiles of %d), %d virtual cores\n", s.alg, s.sched, bs.N(), s.nt, s.nt, s.nb, s.workers)
		report, err := bench.TraceExperiment(bs)
		if err != nil {
			return err
		}
		if err := report.Section().WriteText(w); err != nil || *out == "" {
			return err
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		opt := trace.SVGOptions{TimeScale: max(report.Real.Makespan, report.Sim.Makespan)}
		for _, f := range []struct {
			name string
			tr   *trace.Trace
		}{{"real", report.Real.Trace}, {"simulated", report.Sim.Trace}} {
			var svg, txt bytes.Buffer
			if err := errors.Join(f.tr.WriteSVG(&svg, opt), f.tr.WriteText(&txt)); err != nil {
				return err
			}
			base := filepath.Join(*out, f.name)
			if err := errors.Join(os.WriteFile(base+".svg", svg.Bytes(), 0o644), os.WriteFile(base+".txt", txt.Bytes(), 0o644)); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s.svg and %s.txt\n", base, base)
		}
		return nil
	}
}

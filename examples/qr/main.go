// QR end-to-end: the paper's second case study (Algorithm 2), run on all
// three scheduler reproductions through their native APIs.
//
// The same tile QR task stream is expressed three times — with QUARK's
// InsertTask flags, StarPU's codelets, and OmpSs' depend clauses — then
// factored for real (with numerical verification) and simulated, printing
// the per-scheduler virtual makespans. This demonstrates the paper's
// portability claim: the simulation library needs nothing from the
// scheduler beyond task insertion and (optionally) a quiescence query.
//
//	go run ./examples/qr -nt 6 -nb 96 -workers 6
package main

import (
	"flag"
	"fmt"
	"log"

	"supersim"
	"supersim/internal/factor"
	"supersim/internal/sched"
	"supersim/internal/sched/ompss"
	"supersim/internal/sched/quark"
	"supersim/internal/sched/starpu"
	"supersim/internal/tile"
	"supersim/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qr: ")
	var (
		nt      = flag.Int("nt", 6, "tiles per dimension")
		nb      = flag.Int("nb", 96, "tile size")
		workers = flag.Int("workers", 6, "virtual cores")
	)
	flag.Parse()

	fmt.Printf("tile QR of a %dx%d matrix (%dx%d tiles of %d)\n",
		*nt**nb, *nt**nb, *nt, *nt, *nb)

	// ---------------- QUARK: InsertTask with flags -----------------------
	var model *supersim.Model
	{
		a := workload.RandomGeneral(*nt, *nb, 42)
		tm := tile.NewMatrix(*nt, *nb)
		orig := a.Clone()
		q, err := quark.New(*workers)
		if err != nil {
			log.Fatal(err)
		}
		collector := supersim.NewCollector()
		sim := supersim.NewSimulator(q, "quark-real", supersim.WithSampleHook(collector.Hook()))
		sink := factor.InsertMeasured(q, sim, "qr", a, tm)
		q.Barrier()
		q.Shutdown()
		if err := sink.Err(); err != nil {
			log.Fatal(err)
		}
		resid := factor.QRResidual(orig, a, tm)
		orth := factor.QROrthogonality(a, tm)
		fmt.Printf("QUARK : measured makespan %.4fs  residual %.2g  orthogonality %.2g\n",
			sim.Trace().Makespan(), resid, orth)

		model, err = supersim.FitModel(collector)
		if err != nil {
			log.Fatal(err)
		}
		q2, err := quark.New(*workers)
		if err != nil {
			log.Fatal(err)
		}
		sim2 := supersim.NewSimulator(q2, "quark-sim")
		tk := supersim.NewTasker(sim2, model, 3)
		b := workload.RandomGeneral(*nt, *nb, 42)
		tb := tile.NewMatrix(*nt, *nb)
		for _, op := range factor.QR(b, tb) {
			// The QUARK-native insertion path, with priority flags as a
			// PLASMA code would use them.
			q2.InsertTask(string(op.Class), tk.SimTask(string(op.Class)),
				&quark.TaskFlags{Priority: op.Priority, Label: op.Label()},
				op.SchedArgs()...)
		}
		q2.Barrier()
		q2.Shutdown()
		fmt.Printf("QUARK : simulated makespan %.4fs (error %.2f%%)\n",
			sim2.Trace().Makespan(),
			errPct(sim2.Trace().Makespan(), sim.Trace().Makespan()))
	}

	// ---------------- StarPU: codelets -----------------------------------
	{
		a := workload.RandomGeneral(*nt, *nb, 42)
		tm := tile.NewMatrix(*nt, *nb)
		s, err := starpu.New(starpu.Conf{NCPUs: *workers, Policy: starpu.PolicyWS})
		if err != nil {
			log.Fatal(err)
		}
		sim := supersim.NewSimulator(s, "starpu-sim")
		// The same calibrated model drives every scheduler: the library
		// is agnostic to which runtime resolves the dependences.
		tk := supersim.NewTasker(sim, model, 5)
		// One codelet per kernel class; StarPU users register these once.
		codelets := map[string]*starpu.Codelet{}
		for _, class := range []string{"DGEQRT", "DORMQR", "DTSQRT", "DTSMQR"} {
			class := class
			codelets[class] = &starpu.Codelet{Name: class, CPU: tk.SimTask(class)}
		}
		for _, op := range factor.QR(a, tm) {
			if err := s.TaskSubmit(codelets[string(op.Class)], op.SchedArgs(),
				starpu.WithLabel(op.Label()), starpu.WithPriority(op.Priority)); err != nil {
				log.Fatal(err)
			}
		}
		s.Barrier()
		s.Shutdown()
		fmt.Printf("StarPU: simulated makespan %.4fs with the '%s' policy (%d steals)\n",
			sim.Trace().Makespan(), s.Policy(), s.Stats().Steals)
	}

	// ---------------- OmpSs: depend clauses ------------------------------
	{
		a := workload.RandomGeneral(*nt, *nb, 42)
		tm := tile.NewMatrix(*nt, *nb)
		o, err := ompss.New(*workers)
		if err != nil {
			log.Fatal(err)
		}
		sim := supersim.NewSimulator(o, "ompss-sim")
		tk := supersim.NewTasker(sim, model, 5)
		for _, op := range factor.QR(a, tm) {
			// Translate access modes into OmpSs depend clauses, as the
			// Mercurium compiler would for #pragma omp task annotations.
			deps := make([]sched.Arg, 0, len(op.Args))
			for _, arg := range op.SchedArgs() {
				switch arg.Mode {
				case sched.Read:
					deps = append(deps, ompss.In(arg.Handle))
				case sched.Write:
					deps = append(deps, ompss.Out(arg.Handle))
				default:
					deps = append(deps, ompss.InOut(arg.Handle))
				}
			}
			o.Task(string(op.Class), tk.SimTask(string(op.Class)), deps...)
		}
		o.TaskWait()
		o.Shutdown()
		fmt.Printf("OmpSs : simulated makespan %.4fs\n", sim.Trace().Makespan())
	}
}

func errPct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := (a - b) / b * 100
	if d < 0 {
		d = -d
	}
	return d
}

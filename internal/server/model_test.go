package server

import (
	"math"
	"testing"

	"supersim/internal/bench"
	"supersim/internal/core"
	"supersim/internal/dist"
	"supersim/internal/perfmodel"
	"supersim/internal/replay"
	"supersim/internal/rng"
	"supersim/internal/sched"
)

// TestModelStreamContract holds every duration model the repository builds
// to replay.Options.Model's contract: a model draws all its randomness from
// the stream it is handed, so two identical stream states give identical
// bits — the duration and the stream after the draw. Sweeps and
// multi-repetition jobs rely on it to replay a model that draws nothing
// once (replay.SeedFree), which must hold exactly for the constant models.
func TestModelStreamContract(t *testing.T) {
	arena, err := bench.CaptureArena(bench.Spec{Algorithm: "cholesky", Scheduler: "quark", NT: 4, NB: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var classes []string
	seen := map[string]bool{}
	for _, task := range arena.DAG().Tasks {
		if !seen[task.Class] {
			seen[task.Class] = true
			classes = append(classes, task.Class)
		}
	}

	// Per-class samples to fit, spread like measured kernel times.
	col := perfmodel.NewCollector()
	src := rng.New(17)
	for i, class := range classes {
		for k := 0; k < 64; k++ {
			col.Add(class, k%4, float64(i+1)*1e-3*math.Exp(0.2*src.NormFloat64()))
		}
	}
	fitted := func(family dist.Family) core.DurationModel {
		m, err := perfmodel.FitSingle(col, family)
		if err != nil {
			t.Fatalf("fit %s: %v", family, err)
		}
		return m
	}

	type modelCase struct {
		name     string
		model    core.DurationModel
		seedFree bool
	}
	models := []modelCase{
		{"core.FixedModel", core.FixedModel(1e-3), true},
		{"bench.FaultModel (core.ClassMap)", bench.FaultModel("cholesky", 8), true},
		{"classModel", buildModel(&ModelSpec{Fixed: 2e-3, Classes: map[string]float64{classes[0]: 5e-3}}), true},
		{"buildModel(nil)", buildModel(nil), true},
		{"perfmodel constant fit", fitted(dist.FamConstant), true},
	}
	for _, family := range dist.PaperFamilies {
		models = append(models, modelCase{"perfmodel " + string(family) + " fit", fitted(family), false})
	}

	for _, tc := range models {
		for _, class := range classes {
			a, b := rng.New(99), rng.New(99)
			for draw := 0; draw < 8; draw++ {
				da := tc.model.Duration(class, sched.KindCPU, a)
				db := tc.model.Duration(class, sched.KindCPU, b)
				if math.Float64bits(da) != math.Float64bits(db) || *a != *b {
					t.Fatalf("%s %s draw %d: identical streams gave %g and %g", tc.name, class, draw, da, db)
				}
			}
		}
		if got := replay.SeedFree(arena, tc.model); got != tc.seedFree {
			t.Errorf("%s: SeedFree %v, want %v", tc.name, got, tc.seedFree)
		}
	}
}

package analysis

import (
	"go/ast"
	"go/types"
)

// detrandExempt are the math/rand(/v2) package-level functions that do
// NOT touch the global source: explicit-seed constructors. Everything
// else at package level draws from the shared, run-dependent global
// generator and breaks simulation reproducibility.
var detrandExempt = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// NewDetRand returns the detrand analyzer. It applies module-wide:
// every simulator component must draw randomness from seeded
// internal/rng streams (or an explicitly seeded *rand.Rand) so that a
// given seed reproduces the same virtual timeline.
func NewDetRand() *Analyzer {
	a := &Analyzer{
		Name: "detrand",
		Doc: "forbid the global math/rand source (rand.Intn, rand.Float64, rand.Seed, ...): " +
			"draw randomness from seeded internal/rng streams so simulations are reproducible",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil {
					return true
				}
				path := obj.Pkg().Path()
				if path != "math/rand" && path != "math/rand/v2" {
					return true
				}
				// Methods on *rand.Rand (an explicitly seeded stream) are
				// fine; only package-level globals are banned.
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true
				}
				if detrandExempt[obj.Name()] {
					return true
				}
				pass.Reportf(sel.Pos(),
					"global math/rand source (rand.%s) is non-reproducible: seed a stream via "+
						"internal/rng (or rand.New(rand.NewSource(seed)))",
					obj.Name())
				return true
			})
		}
		return nil
	}
	return a
}

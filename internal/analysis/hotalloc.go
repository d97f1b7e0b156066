package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewHotAlloc returns the hotalloc analyzer: functions annotated with a
// //simlint:hotpath doc-comment line must not heap-allocate. PR 7 pins
// the replay hot paths' allocation ceiling dynamically (4 allocs per
// ReplayVsDirect); this is the static half of that contract — the
// specific operations the issue calls out are flagged at the source
// line that introduces them:
//
//   - make/new and slice/map composite literals;
//   - append (the backing array may grow);
//   - &composite{} (escape-prone) and function literals (closure
//     captures);
//   - interface boxing: passing a non-pointer-shaped concrete value
//     where an interface is expected (detected via the types API);
//   - string concatenation and string<->[]byte conversions;
//   - calls to module-local functions that may allocate transitively,
//     unless the callee is itself //simlint:hotpath (then it is checked
//     on its own) or provably allocation-free via the call-graph fact.
//
// sync, sync/atomic, math and math/bits are exempt callees: mutex
// operations are allocation-free, sync.Pool is the sanctioned
// amortization boundary (the repo's pooled-scratch idiom — steady-state
// zero alloc), and the two math packages are leaf packages of pure
// arithmetic, mostly compiler intrinsics. Any other callee outside the
// module has no body to inspect and is charged as allocating. Interface
// dispatch resolves to no static callee and is deliberately not charged;
// the dynamic ceiling test covers it.
func NewHotAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc: "forbid heap allocations (make, append growth, composite literals, closures, " +
			"interface boxing, allocating callees) inside //simlint:hotpath functions — " +
			"the static twin of the replay alloc-ceiling benchmarks",
	}
	var (
		cachedProg *Program
		ownMemo    map[*types.Func]bool
		fact       *Fact
	)
	a.Run = func(pass *Pass) error {
		if pass.Prog == nil || pass.Package == nil {
			return nil
		}
		if pass.Prog != cachedProg {
			cachedProg = pass.Prog
			ownMemo = make(map[*types.Func]bool)
			base := func(fn *types.Func) bool {
				fi := pass.Prog.FuncOf(fn)
				if fi == nil {
					return !hotallocExemptCallee(fn)
				}
				own, ok := ownMemo[fn]
				if !ok {
					own = len(allocOpsIn(fi.Pkg.TypesInfo, fi.Decl)) > 0
					ownMemo[fn] = own
				}
				return own
			}
			// Annotated callees are verified by their own report pass;
			// their allowed residual ops must not propagate to callers.
			boundary := func(fn *types.Func) bool { return pass.Prog.Hotpath(fn) }
			fact = pass.Prog.NewFact(base, boundary)
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasHotpathDirective(fd) || fd.Body == nil {
					continue
				}
				name := fd.Name.Name
				for _, op := range allocOpsIn(pass.TypesInfo, fd) {
					pass.Reportf(op.pos,
						"heap allocation in //simlint:hotpath function %s: %s "+
							"(hoist it, pool it, or //simlint:allow hotalloc with a reason)",
						name, op.what)
				}
				fi := pass.Prog.DeclOf(pass.Package, fd)
				if fi == nil {
					continue
				}
				for _, cs := range fi.Callees {
					callee := cs.Callee
					if hotallocExemptCallee(callee) || pass.Prog.Hotpath(callee) {
						continue
					}
					if !fact.Holds(callee) {
						continue
					}
					via := ""
					if chain := fact.Witness(callee); len(chain) > 0 {
						via = " via " + strings.Join(chain, " -> ")
					}
					pass.Reportf(cs.Pos,
						"//simlint:hotpath function %s calls %s which may allocate%s: "+
							"annotate the callee //simlint:hotpath (and fix it) or hoist the call",
						name, funcDisplayName(callee), via)
				}
			}
		}
		return nil
	}
	return a
}

// hotallocExemptCallee reports callees never charged as allocating:
// sync (Pool is the audited amortization boundary, mutexes are
// allocation-free), sync/atomic, and the allocation-free leaf packages
// math and math/bits.
func hotallocExemptCallee(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return true // error interface methods and friends
	}
	switch pkg.Path() {
	case "sync", "sync/atomic", "math", "math/bits":
		return true
	}
	return false
}

// allocOp is one statically detected allocation site.
type allocOp struct {
	pos  token.Pos
	what string
}

// allocOpsIn scans one function declaration's body for allocation
// operations. Calls are not charged here — the analyzer follows call
// edges through the fact layer instead.
func allocOpsIn(info *types.Info, fd *ast.FuncDecl) []allocOp {
	var ops []allocOp
	if fd.Body == nil {
		return nil
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				ops = append(ops, allocOp{n.Pos(), "slice literal allocates its backing array"})
			case *types.Map:
				ops = append(ops, allocOp{n.Pos(), "map literal allocates"})
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					ops = append(ops, allocOp{n.Pos(), "&composite literal escapes to the heap"})
				}
			}
		case *ast.FuncLit:
			ops = append(ops, allocOp{n.Pos(), "function literal may allocate a closure"})
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if b, ok := info.TypeOf(n).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					ops = append(ops, allocOp{n.Pos(), "string concatenation allocates"})
				}
			}
		case *ast.CallExpr:
			ops = append(ops, callAllocOps(info, n)...)
		}
		return true
	})
	return ops
}

// callAllocOps classifies one call expression: allocating builtins,
// allocating conversions, and interface boxing of arguments.
func callAllocOps(info *types.Info, call *ast.CallExpr) []allocOp {
	var ops []allocOp
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				ops = append(ops, allocOp{call.Pos(), "make allocates"})
			case "new":
				ops = append(ops, allocOp{call.Pos(), "new allocates"})
			case "append":
				ops = append(ops, allocOp{call.Pos(), "append may grow its backing array"})
			}
			return ops
		}
	}
	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := info.TypeOf(call.Args[0])
		if src != nil {
			if stringBytesConversion(dst, src) {
				ops = append(ops, allocOp{call.Pos(), "string/[]byte conversion copies and allocates"})
			} else if types.IsInterface(dst) && !types.IsInterface(src) && !pointerShaped(src) {
				ops = append(ops, allocOp{call.Pos(), "conversion to interface boxes a non-pointer value"})
			}
		}
		return ops
	}
	// Interface boxing of call arguments.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return ops
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= sig.Params().Len() {
		ops = append(ops, allocOp{call.Pos(), "variadic call allocates its argument slice"})
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < sig.Params().Len()-1 || (i < sig.Params().Len() && !sig.Variadic()):
			pt = sig.Params().At(i).Type()
		case sig.Variadic() && !call.Ellipsis.IsValid():
			if sl, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case sig.Variadic() && call.Ellipsis.IsValid() && i == sig.Params().Len()-1:
			pt = sig.Params().At(i).Type() // passed through, no boxing
			continue
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil {
			continue
		}
		at = types.Default(at)
		if types.IsInterface(at) || pointerShaped(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		ops = append(ops, allocOp{arg.Pos(), "interface argument boxes a non-pointer value"})
	}
	return ops
}

// stringBytesConversion reports a string <-> []byte/[]rune conversion.
func stringBytesConversion(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteSlice(src)) || (isByteSlice(dst) && isStr(src))
}

// pointerShaped reports whether values of t fit in an interface word
// without allocating (pointers, channels, maps, funcs, unsafe.Pointer).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

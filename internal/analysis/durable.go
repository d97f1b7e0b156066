package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// DefaultDurableScope are the package prefixes the durable analyzer
// audits: the service layer, where the durability contract lives.
var DefaultDurableScope = []string{"supersim/internal/server", "supersim/internal/cluster"}

// NewDurable returns the durable analyzer, enforcing the journal
// write-ahead contract on the server's accept path (DESIGN.md §10):
//
//  1. accept records go through the synchronous journal API — a call to
//     an async Append whose record type is the "accept" constant is an
//     error, because a crash between the 202 response and the batched
//     fsync silently loses an acknowledged job;
//  2. within any function that writes a 202 (StatusAccepted) response,
//     a synchronous journal append (AppendSync directly, or a
//     module-local callee that reaches one) must appear earlier in
//     source order — the happens-before edge that makes the ack honest;
//  3. files published under the data dir (cache frames, baselines) go
//     through journal.WriteFileAtomic — a direct os.WriteFile or
//     os.Create in the service layer can be torn by a crash mid-write,
//     and a torn file read back on recovery is corruption, not a miss.
//
// The source-order check is intraprocedural by design: the repo routes
// both the journal write and the ack through Server.handleSubmit, so a
// violation is visible in one function body. Acks issued without any
// reachable durable write are reported even if a different function
// journals the job, because that ordering cannot be verified statically.
func NewDurable(scopePrefixes []string) *Analyzer {
	a := &Analyzer{
		Name: "durable",
		Doc: "accept-path durability: journal.AppendSync must happen before the 202 " +
			"response write, and accept records must never use the async Append",
	}
	var (
		cachedProg *Program
		syncFact   *Fact
	)
	a.Run = func(pass *Pass) error {
		if pass.Prog == nil || pass.Package == nil {
			return nil
		}
		if !pkgPathMatches(pass.Package.PkgPath, scopePrefixes) {
			return nil
		}
		if pass.Prog != cachedProg {
			cachedProg = pass.Prog
			syncFact = pass.Prog.NewFact(isJournalAppendSync, nil)
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkDurable(pass, fd, syncFact)
			}
		}
		return nil
	}
	return a
}

// isJournalAppendSync recognizes the synchronous journal append.
func isJournalAppendSync(fn *types.Func) bool {
	pkg := fn.Pkg()
	return pkg != nil && strings.HasSuffix(pkg.Path(), "internal/journal") && fn.Name() == "AppendSync"
}

// isJournalAppendAsync recognizes the batched asynchronous append.
func isJournalAppendAsync(fn *types.Func) bool {
	pkg := fn.Pkg()
	return pkg != nil && strings.HasSuffix(pkg.Path(), "internal/journal") && fn.Name() == "Append"
}

// isRawFileWrite recognizes the os-package entry points that publish a
// file non-atomically: WriteFile truncates in place, Create/OpenFile hand
// back a writer that does. The sanctioned alternative in the durable
// scope is journal.WriteFileAtomic (tmp + fsync + rename).
func isRawFileWrite(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil || pkg.Path() != "os" {
		return false
	}
	switch fn.Name() {
	case "WriteFile", "Create", "OpenFile":
		return true
	}
	return false
}

// checkDurable applies both durability checks to one function.
func checkDurable(pass *Pass, fd *ast.FuncDecl, syncFact *Fact) {
	info := pass.TypesInfo

	type event struct {
		pos     token.Pos
		durable bool // an AppendSync happens-before edge
		ack     bool // a 202 response write
	}
	var events []event

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := resolveCallee(info, call)
		if callee == nil {
			return true
		}
		// Check 1: async Append with an "accept" record type.
		if isJournalAppendAsync(callee) && len(call.Args) > 0 {
			if tv, ok := info.Types[call.Args[0]]; ok && tv.Value != nil &&
				tv.Value.Kind() == constant.String && constant.StringVal(tv.Value) == "accept" {
				pass.Reportf(call.Pos(),
					"accept record journaled with the async Append: a crash between the "+
						"202 response and the batched fsync loses an acknowledged job — "+
						"use AppendSync on the accept path")
			}
		}
		// Check 3: data-dir files are published atomically.
		if isRawFileWrite(callee) {
			pass.Reportf(call.Pos(),
				"file written with os.%s in the durable scope: a crash mid-write "+
					"publishes a torn file that recovery reads back as corruption — "+
					"use journal.WriteFileAtomic",
				callee.Name())
		}
		durable := isJournalAppendSync(callee) || syncFact.Holds(callee)
		ack := callHasStatusAccepted(info, call)
		if durable || ack {
			events = append(events, event{pos: call.Pos(), durable: durable, ack: ack})
		}
		return true
	})

	// Check 2: every ack needs an earlier durable write in this body.
	durableSeen := false
	for _, ev := range events {
		if ev.ack && !durableSeen {
			pass.Reportf(ev.pos,
				"202 response written in %s with no journal.AppendSync earlier in the "+
					"function: the ack promises durability the journal has not provided yet",
				fd.Name.Name)
		}
		if ev.durable {
			durableSeen = true
		}
	}
}

// callHasStatusAccepted reports whether any argument of call is the
// constant 202 (http.StatusAccepted) — the shape of every response-write
// helper in the server package (WriteJSON(w, http.StatusAccepted, ...),
// w.WriteHeader(http.StatusAccepted)).
func callHasStatusAccepted(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		tv, ok := info.Types[arg]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
			continue
		}
		if v, exact := constant.Int64Val(tv.Value); exact && v == 202 {
			return true
		}
	}
	return false
}

package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The scheduler-only-concurrency pass enforces PR 3's ownership rule
// type-aware: goroutines and WaitGroups belong to internal/sched, whose
// Scheduler gives admission control, fail-fast cancellation, and
// deterministic makespan accounting. Everywhere else a `go` statement or
// any use of a sync.WaitGroup — however the import is spelled, and even
// through a field of WaitGroup type — is a finding, with one structural
// exception: the data-parallel kernel packages (internal/exec,
// internal/relation) may run *contained fork-join* helpers, where every
// goroutine spawned by a function is provably joined inside that same
// function (a WaitGroup.Wait or a channel receive follows the spawn in
// the same body). Anything that lets a goroutine outlive its function is
// execution-stack concurrency and must go through the scheduler.

// forkJoinPkgs are the packages whose contained fork-join is sanctioned.
var forkJoinPkgs = []string{"internal/exec", "internal/relation"}

func checkConcurrency(p *pass) {
	p.eachFuncDecl(func(pkg *Package, file *File, decl *ast.FuncDecl) {
		if pkg.Rel == "internal/sched" {
			return
		}
		contained := underAny(pkg.Rel, forkJoinPkgs) && joinsInBody(pkg.Info, decl.Body)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if contained {
					return true
				}
				p.reportf(n.Pos(), fmt.Sprintf(
					"go statement outside internal/sched in %s: execution-stack concurrency must go through sched.Scheduler (contained fork-join is only sanctioned inside the kernel packages)",
					decl.Name.Name))
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Add", "Done", "Wait":
				default:
					return true
				}
				tv, ok := pkg.Info.Types[sel.X]
				if !ok || !isStdType(tv.Type, "sync", "WaitGroup") {
					return true
				}
				if contained {
					return true
				}
				p.reportf(n.Pos(), fmt.Sprintf(
					"sync.WaitGroup.%s outside internal/sched in %s: concurrency must go through sched.Scheduler, not hand-rolled joins",
					sel.Sel.Name, decl.Name.Name))
			}
			return true
		})
	})
}

// joinsInBody reports whether body both spawns and joins: every sanctioned
// fork-join kernel helper waits for its goroutines before returning, via
// WaitGroup.Wait or a channel receive.
func joinsInBody(info *types.Info, body *ast.BlockStmt) bool {
	spawns, joins := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			spawns = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				joins = true
			}
		case *ast.RangeStmt:
			// ranging over a channel is also a join
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					joins = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if tv, ok := info.Types[sel.X]; ok && isStdType(tv.Type, "sync", "WaitGroup") {
					joins = true
				}
			}
		}
		return true
	})
	return spawns && joins
}

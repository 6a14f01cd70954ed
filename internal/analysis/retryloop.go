package analysis

import (
	"go/ast"
	"strings"
)

// RetryLoop keeps Figure 2's unbounded retry construction in one
// place: outside the allowlisted engines, a naked `for {}` whose body
// retries a weak attempt (a CAS, or a Try* operation) must be written
// as core.Retry or core.RetryOp (under a core.Retrier's manager and
// budget) over a try closure. That is what makes WithRetryPolicy pacing and ErrExhausted
// graceful degradation (PR 7) universal properties of the catalog
// instead of per-backend accidents: a hand-rolled spin can neither be
// paced by a contention manager nor shed under a budget.
//
// Allowlisted: internal/core (it implements the loop), internal/memory
// (pool carving spins below the retry abstraction) and internal/set
// (the lock-free list engine, whose search/helping loops are integral
// to the Harris algorithm and are bounded by list length, not by
// contention alone).
//
// Loops that block on channels (select or receive) are event loops,
// not retry spins, and are ignored.
var RetryLoop = &Analyzer{
	Name: "retryloop",
	Doc:  "report naked unbounded CAS/Try retry loops that bypass core.Retry",
	Run:  runRetryLoop,
}

// retryLoopExempt lists the package-path suffixes allowed to hand-roll
// retry loops.
var retryLoopExempt = []string{"internal/core", "internal/memory", "internal/set"}

func runRetryLoop(pass *Pass) error {
	for _, suffix := range retryLoopExempt {
		if isPkgPath(pass.Pkg.Path(), suffix) {
			return nil
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond != nil || loop.Init != nil || loop.Post != nil {
				return true
			}
			if name := retrySpinCallee(loop.Body); name != "" {
				pass.Reportf(loop.Pos(), "unbounded retry loop around %s; use core.Retry/RetryBudget so retry policies and graceful degradation apply", name)
			}
			return true
		})
	}
	return nil
}

// retrySpinCallee scans a loop body (not descending into nested
// function literals or nested for-loops, which are checked on their
// own) and returns the name of the first weak-attempt call that makes
// the loop a retry spin, or "" if the loop blocks on channels or makes
// no such call.
func retrySpinCallee(body *ast.BlockStmt) string {
	name := ""
	blocks := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.SelectStmt:
			blocks = true
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				blocks = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if isWeakAttemptName(sel.Sel.Name) && name == "" {
					name = sel.Sel.Name
				}
			} else if id, ok := n.Fun.(*ast.Ident); ok {
				if isWeakAttemptName(id.Name) && name == "" {
					name = id.Name
				}
			}
		}
		return true
	})
	if blocks {
		return ""
	}
	return name
}

// isWeakAttemptName reports whether a callee name denotes a weak
// attempt in the paper's sense: a CAS on a register, or a Try*
// operation exposing the abortable rung.
func isWeakAttemptName(name string) bool {
	return name == "CAS" ||
		strings.HasPrefix(name, "CompareAndSwap") ||
		(strings.HasPrefix(name, "Try") && len(name) > len("Try"))
}

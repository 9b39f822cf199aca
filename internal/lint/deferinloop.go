package lint

import (
	"go/ast"
)

// DeferInLoop reports defer statements inside loop bodies: deferred
// calls only run when the function returns, so a defer in a loop
// accumulates one pending call per iteration — the classic
// resource-leak shape in replay loops that open per-item resources. A
// function literal is a function of its own, so a defer inside a
// literal called from the loop body releases every iteration; that
// hoisting is the fix. The check is syntactic: a defer anywhere in a
// for or range body, which finds every loop in code without goto.
var DeferInLoop = &Analyzer{
	Name: "deferinloop",
	Doc:  "defer inside a loop accumulates until the function returns",
	Run:  runDeferInLoop,
}

func runDeferInLoop(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		deferInLoop(pass, f, false)
	}
}

// deferInLoop reports the defers under n that run once per iteration
// of a loop of their own function; inLoop says whether n already sits in
// such a loop body.
func deferInLoop(pass *Pass, n ast.Node, inLoop bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			deferInLoop(pass, m.Body, false)
			return false
		case *ast.ForStmt:
			for _, part := range []ast.Node{m.Init, m.Cond, m.Post} {
				if part != nil {
					deferInLoop(pass, part, inLoop)
				}
			}
			deferInLoop(pass, m.Body, true)
			return false
		case *ast.RangeStmt:
			deferInLoop(pass, m.X, inLoop)
			deferInLoop(pass, m.Body, true)
			return false
		case *ast.DeferStmt:
			if inLoop {
				pass.Reportf(m.Pos(),
					"defer inside a loop runs only at function return and accumulates per iteration; hoist the loop body into a function")
			}
		}
		return true
	})
}

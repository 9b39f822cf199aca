package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeferUnlock reports mu.Lock() calls in functions with multiple
// returns that are not paired with a defer mu.Unlock(): any early
// return between Lock and a hand-rolled Unlock leaks the lock. Single
// straight-line Lock/Unlock pairs (one return) stay allowed — the
// metrics hot path uses them deliberately.
var DeferUnlock = &Analyzer{
	Name: "deferunlock",
	Doc:  "Lock() in multi-return functions must pair with defer Unlock()",
	Run:  runDeferUnlock,
}

// lockCall matches an ExprStmt of the form recv.Lock/RLock/Unlock/RUnlock
// where the method belongs to sync.Mutex or sync.RWMutex (directly or
// promoted through embedding), returning the textual receiver path.
func lockCall(info *types.Info, stmt ast.Stmt) (recv, method string, pos ast.Node, ok bool) {
	es, isExpr := stmt.(*ast.ExprStmt)
	if !isExpr {
		return "", "", nil, false
	}
	return lockCallExpr(info, es.X)
}

func lockCallExpr(info *types.Info, e ast.Expr) (recv, method string, pos ast.Node, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", nil, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", nil, false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	named := receiverNamed(fn)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", "", nil, false
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", "", nil, false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), fn.Name(), call, true
	}
	return "", "", nil, false
}

// unlockFor maps a lock method to its release counterpart.
func unlockFor(method string) string {
	if method == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

func runDeferUnlock(pass *Pass) {
	info := pass.Pkg.Info
	pass.inspect(func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			return true
		}
		var returns []token.Pos
		type lock struct {
			recv, method string
			node         ast.Node
		}
		var locks []lock
		deferred := map[string]bool{}       // "recv\x00method" released via defer
		unlocks := map[string][]token.Pos{} // explicit releases by "recv\x00method"
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.FuncLit:
				return false // nested functions are their own scope
			case *ast.ReturnStmt:
				returns = append(returns, s.Pos())
			case *ast.DeferStmt:
				if recv, method, _, ok := lockCallExpr(info, s.Call); ok {
					deferred[recv+"\x00"+method] = true
				}
			case *ast.ExprStmt:
				if recv, method, node, ok := lockCall(info, s); ok {
					if method == "Lock" || method == "RLock" {
						locks = append(locks, lock{recv, method, node})
					} else {
						key := recv + "\x00" + method
						unlocks[key] = append(unlocks[key], node.Pos())
					}
				}
			}
			return true
		})
		if len(returns) < 2 {
			return true
		}
		for _, l := range locks {
			release := unlockFor(l.method)
			if deferred[l.recv+"\x00"+release] {
				continue
			}
			// The lock is held from Lock() until the textually nearest
			// explicit release; a return inside that window leaks it.
			end := token.Pos(1 << 40)
			for _, u := range unlocks[l.recv+"\x00"+release] {
				if u > l.node.Pos() && u < end {
					end = u
				}
			}
			leaky := false
			for _, r := range returns {
				if r > l.node.Pos() && r < end {
					leaky = true
					break
				}
			}
			if leaky || len(unlocks[l.recv+"\x00"+release]) == 0 {
				pass.Reportf(l.node.Pos(),
					"%s.%s() in a function with %d returns has no defer %s.%s(); an early return would leak the lock",
					l.recv, l.method, len(returns), l.recv, release)
			}
		}
		return true
	})
}

package lint

import (
	"go/ast"
	"strings"
)

// hotPackages are the query-hot-path packages: every RangeReach
// evaluation runs through them, so a stray clock read is pure per-query
// overhead and skews benchmark numbers. Timing belongs to the trace
// package's Start/End helpers (nil-safe, free when disabled) or to the
// callers (rrbench, rrserve). Build-time code inside these packages
// escapes with a justified //lint:ignore hotclock.
// Matching is by path prefix so fixture and future subpackages inherit
// the rule.
var hotPackages = []string{
	"repro/internal/core",
	"repro/internal/rtree",
	"repro/internal/labeling",
	"repro/internal/intervals",
	"repro/internal/graph",
	"repro/internal/geom",
	"repro/internal/bfl",
	"repro/internal/pll",
	"repro/internal/georeach",
	"repro/internal/grid",
	"repro/internal/tiles",
	"repro/internal/incr",
}

// HotClock forbids time.Now and time.Since in hot-path packages.
var HotClock = &Analyzer{
	Name: "hotclock",
	Doc:  "no time.Now/time.Since in query hot-path packages",
	Run:  runHotClock,
}

func isHotPackage(path string) bool {
	for _, hot := range hotPackages {
		if path == hot || strings.HasPrefix(path, hot+"/") {
			return true
		}
	}
	return false
}

func runHotClock(pass *Pass) {
	if !isHotPackage(pass.Pkg.Path) {
		return
	}
	pass.inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Pkg.Info, call)
		if funcFrom(fn, "time", "Now") || funcFrom(fn, "time", "Since") {
			pass.Reportf(call.Pos(),
				"time.%s in hot-path package %s; time through trace.Span's Start/End (or justify with //lint:ignore hotclock)",
				fn.Name(), pass.Pkg.Path)
		}
		return true
	})
}

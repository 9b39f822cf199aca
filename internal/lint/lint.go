// Package lint is a from-scratch static-analysis driver for this
// module, built on go/parser, go/ast and go/types only (no x/tools
// dependency). It loads every package of the module (stdlib imports are
// type-checked from source) and runs a set of project-specific
// analyzers that guard conventions no test or compiler check pins:
// nil-safe trace spans, clock-free hot paths, deterministic randomness,
// checked errors, locks released on every return, and no defers piling
// up in loops. cmd/rrlint is the CLI front end and a ci.sh gate.
//
// Individual findings can be suppressed with a justified directive on
// the offending line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a bare directive is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer report.
type Finding struct {
	// Pos locates the finding in the source.
	Pos token.Position
	// Analyzer names the analyzer that produced the finding.
	Analyzer string
	// Message describes the problem.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one named check over one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in findings and ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run analyzes one package.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Fset resolves positions.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *Package

	analyzer *Analyzer
	out      *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every analyzer of the suite.
func All() []*Analyzer {
	return []*Analyzer{
		TraceSpan,
		HotClock,
		MathRand,
		ErrCheck,
		DeferUnlock,
		DeferInLoop,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the analyzers over every package of the module and
// returns the surviving findings sorted by position. Findings on a line
// carrying (or directly below) a matching //lint:ignore directive are
// dropped; malformed directives, and directives that suppressed nothing
// (stale ignores), are themselves reported.
func Run(mod *Module, analyzers []*Analyzer) []Finding {
	return run(mod.Fset, mod.Pkgs, analyzers)
}

// RunPackage executes the analyzers against a single package — the
// fixture-test entry point. Directives in the package still apply.
func RunPackage(fset *token.FileSet, pkg *Package, analyzers []*Analyzer) []Finding {
	return run(fset, []*Package{pkg}, analyzers)
}

func run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			a.Run(&Pass{Fset: fset, Pkg: pkg, analyzer: a, out: &raw})
		}
	}
	ig, bad := collectIgnores(fset, pkgs)
	return Filter(raw, ig, bad, activeNames(analyzers))
}

// activeNames is the set of analyzer names participating in a run —
// the scope within which unused directives can be judged.
func activeNames(analyzers []*Analyzer) map[string]bool {
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name] = true
	}
	return names
}

// ignoreKey identifies one suppressed (file, line, analyzer) slot.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// ignoreDirective is one parsed //lint:ignore, tracked so unused
// directives can be reported as stale.
type ignoreDirective struct {
	pos      token.Position
	analyzer string
	used     bool
}

// collectIgnores scans every comment for //lint:ignore directives. A
// directive suppresses findings of the named analyzer on its own line
// and on the following line (the comment-above-statement idiom).
// Directives without an analyzer name or a reason are returned as
// findings of their own.
func collectIgnores(fset *token.FileSet, pkgs []*Package) (map[ignoreKey]*ignoreDirective, []Finding) {
	ignores := make(map[ignoreKey]*ignoreDirective)
	var bad []Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					fields := strings.Fields(text)
					if len(fields) < 2 {
						bad = append(bad, Finding{
							Pos:      fset.Position(c.Pos()),
							Analyzer: "directive",
							Message:  "malformed //lint:ignore: want `//lint:ignore <analyzer> <reason>`",
						})
						continue
					}
					pos := fset.Position(c.Pos())
					for _, name := range strings.Split(fields[0], ",") {
						d := &ignoreDirective{pos: pos, analyzer: name}
						ignores[ignoreKey{pos.Filename, pos.Line, name}] = d
						ignores[ignoreKey{pos.Filename, pos.Line + 1, name}] = d
					}
				}
			}
		}
	}
	return ignores, bad
}

// Filter drops findings suppressed by directives, appends the malformed
// directive reports plus a report for every directive that suppressed
// nothing (within the analyzers actually run), and sorts by position.
func Filter(raw []Finding, ignores map[ignoreKey]*ignoreDirective, bad []Finding, active map[string]bool) []Finding {
	out := make([]Finding, 0, len(raw)+len(bad))
	for _, f := range raw {
		if d := ignores[ignoreKey{f.Pos.Filename, f.Pos.Line, f.Analyzer}]; d != nil {
			d.used = true
			continue
		}
		out = append(out, f)
	}
	reported := make(map[*ignoreDirective]bool)
	for _, d := range ignores {
		if d.used || reported[d] || !active[d.analyzer] {
			continue
		}
		reported[d] = true
		out = append(out, Finding{
			Pos:      d.pos,
			Analyzer: "directive",
			Message: fmt.Sprintf("unused //lint:ignore %s: no %s finding here — stale directive, delete it",
				d.analyzer, d.analyzer),
		})
	}
	out = append(out, bad...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// inspect walks every file of the pass's package.
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

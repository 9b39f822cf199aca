package lint

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The module is loaded once and shared: stdlib source type-checking
// dominates the cost, and fixtures only add one small package each.
var (
	modOnce sync.Once
	mod     *Module
	modErr  error
)

func repoModule(t *testing.T) *Module {
	t.Helper()
	modOnce.Do(func() { mod, modErr = LoadModule("../..") })
	if modErr != nil {
		t.Fatalf("LoadModule: %v", modErr)
	}
	return mod
}

// quotedRE pulls the quoted substrings out of a `// want "..." "..."`
// marker.
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

type wantKey struct {
	file string
	line int
}

// fixtureWants collects the expected-finding markers of a fixture
// package: each `// want "substr"` comment demands a finding on its
// line whose message contains the substring.
func fixtureWants(t *testing.T, m *Module, pkg *Package) map[wantKey][]string {
	t.Helper()
	wants := make(map[wantKey][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				pos := m.Fset.Position(c.Pos())
				for _, q := range quotedRE.FindAllString(c.Text[i:], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want marker %s: %v", pos.Filename, pos.Line, q, err)
					}
					k := wantKey{pos.Filename, pos.Line}
					wants[k] = append(wants[k], s)
				}
			}
		}
	}
	return wants
}

// checkFixture type-checks testdata/src/<dir> under importPath, runs
// the named analyzers and matches the findings against the fixture's
// want markers — every finding must be wanted at its exact line, and
// every want must be found.
func checkFixture(t *testing.T, dir, importPath string, analyzers ...string) {
	t.Helper()
	m := repoModule(t)
	pkg, err := m.CheckDir(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("CheckDir(%s): %v", dir, err)
	}
	var as []*Analyzer
	for _, name := range analyzers {
		a := ByName(name)
		if a == nil {
			t.Fatalf("unknown analyzer %q", name)
		}
		as = append(as, a)
	}
	got := RunPackage(m.Fset, pkg, as)
	wants := fixtureWants(t, m, pkg)
	for _, f := range got {
		k := wantKey{f.Pos.Filename, f.Pos.Line}
		matched := -1
		for i, w := range wants[k] {
			if strings.Contains(f.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding: %v", f)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
		if len(wants[k]) == 0 {
			delete(wants, k)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s:%d: no finding matching %q", k.file, k.line, w)
		}
	}
}

func TestHotClockFixture(t *testing.T) {
	// Checked under a hot-path import path, where clock reads are
	// findings.
	checkFixture(t, "hotclock", "repro/internal/core/lintfixture", "hotclock")
}

func TestHotClockColdPath(t *testing.T) {
	// The same kind of code under a serving-path import path is exempt:
	// the fixture has no want markers, so any finding fails the test.
	checkFixture(t, "hotclockcold", "repro/internal/server/lintfixture", "hotclock")
}

// TestHotPackagesExist: every hotPackages entry names a package of the
// module. A renamed or deleted package would otherwise leave an entry
// that matches nothing and quietly stops guarding the hot path.
func TestHotPackagesExist(t *testing.T) {
	have := make(map[string]bool)
	for _, pkg := range repoModule(t).Pkgs {
		have[pkg.Path] = true
	}
	for _, hot := range hotPackages {
		if !have[hot] {
			t.Errorf("hotPackages lists %s, which is not a package of the module", hot)
		}
	}
}

func TestErrCheckFixture(t *testing.T) {
	checkFixture(t, "errcheck", "repro/internal/lintfixture/errcheck", "errcheck")
}

func TestDeferUnlockFixture(t *testing.T) {
	checkFixture(t, "deferunlock", "repro/internal/lintfixture/deferunlock", "deferunlock")
}

func TestDeferInLoopFixture(t *testing.T) {
	checkFixture(t, "deferinloop", "repro/internal/lintfixture/deferinloop", "deferinloop")
}

// TestDirectives exercises the //lint:ignore machinery end to end: a
// well-formed directive suppresses its finding, a malformed one (no
// reason) suppresses nothing and is itself reported.
func TestDirectives(t *testing.T) {
	m := repoModule(t)
	pkg, err := m.CheckDir(filepath.Join("testdata", "src", "directive"), "repro/internal/core/directivefixture")
	if err != nil {
		t.Fatalf("CheckDir: %v", err)
	}
	got := RunPackage(m.Fset, pkg, []*Analyzer{HotClock})
	var malformed, unused, clocks int
	for _, f := range got {
		switch f.Analyzer {
		case "directive":
			switch {
			case strings.Contains(f.Message, "malformed"):
				malformed++
			case strings.Contains(f.Message, "unused //lint:ignore"):
				unused++
			default:
				t.Errorf("directive finding has unexpected message: %v", f)
			}
		case "hotclock":
			clocks++
		default:
			t.Errorf("unexpected analyzer in finding: %v", f)
		}
	}
	if malformed != 1 || unused != 1 || clocks != 1 {
		t.Errorf("got %d malformed + %d unused + %d hotclock findings, want 1 + 1 + 1:\n%v",
			malformed, unused, clocks, got)
	}
}

// TestModuleClean runs the full suite over the real module — the same
// gate as `go run ./cmd/rrlint ./...` in ci.sh. The tree must stay
// lint-clean.
func TestModuleClean(t *testing.T) {
	m := repoModule(t)
	findings := Run(m, All())
	for _, f := range findings {
		t.Errorf("%v", f)
	}
}

// TestByName covers the analyzer registry both ways.
func TestByName(t *testing.T) {
	for _, a := range All() {
		if got := ByName(a.Name); got != a {
			t.Errorf("ByName(%q) = %v, want %v", a.Name, got, a)
		}
	}
	if ByName("nope") != nil {
		t.Errorf("ByName(nope) should be nil")
	}
}

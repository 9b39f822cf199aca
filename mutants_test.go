package rangereach_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// -mutants runs the corpus of testdata/mutants.json: each entry applied
// to its own copy of the module must make its gate fail.
var runMutants = flag.Bool("mutants", false, "apply each testdata/mutants.json entry to a copy of the module and require its gate to fail")

// mutant is one deliberate regression and the gate that must catch it:
// Find occurs exactly once in File and becomes Replace, and then
// `go test -run Run Package` fails.
type mutant struct {
	File    string `json:"file"`
	Find    string `json:"find"`
	Replace string `json:"replace"`
	Package string `json:"package"`
	Run     string `json:"run"`
	Why     string `json:"why"`
}

func loadMutants(t *testing.T) []mutant {
	t.Helper()
	data, err := os.ReadFile("testdata/mutants.json")
	if err != nil {
		t.Fatal(err)
	}
	var ms []mutant
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ms); err != nil {
		t.Fatalf("testdata/mutants.json: %v", err)
	}
	return ms
}

// TestMutantSnippets keeps the corpus in step with the code: every
// entry names its gate and its reason, and its snippet occurs exactly
// once in its file, so code that moves must take its mutant along.
func TestMutantSnippets(t *testing.T) {
	for i, m := range loadMutants(t) {
		if m.Package == "" || m.Run == "" || m.Why == "" || m.Find == m.Replace {
			t.Errorf("mutant %d (%s): incomplete entry", i, m.File)
		}
		data, err := os.ReadFile(m.File)
		if err != nil {
			t.Errorf("mutant %d: %v", i, err)
			continue
		}
		if n := strings.Count(string(data), m.Find); n != 1 {
			t.Errorf("mutant %d: snippet occurs %d times in %s, want once:\n%s", i, n, m.File, m.Find)
		}
	}
}

// TestMutantsKilled, under -mutants, applies each entry to a copy of the
// module and runs its gate there with -count=1, two at a time. A gate
// that passes (a survivor) and a mutant that does not build both fail.
// -trimpath lets the copies share the build cache. A -trimpath binary
// does not know GOROOT, and internal/lint's TestModuleClean type-checks
// the standard library from source, so each gate runs with GOROOT set;
// without it that gate would fail on any copy, mutated or not.
func TestMutantsKilled(t *testing.T) {
	if !*runMutants {
		t.Skip("run with -mutants")
	}
	goroot, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Fatal(err)
	}
	env := append(os.Environ(), "GOROOT="+strings.TrimSpace(string(goroot)))
	ms := loadMutants(t)
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, m := range ms {
		dir := filepath.Join(t.TempDir(), "repro")
		if err := copyModule(dir); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, m.File)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(data), m.Find, m.Replace, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cmd := exec.Command("go", "test", "-trimpath", "-count=1", "-run", "^("+m.Run+")$", m.Package)
			cmd.Dir = dir
			cmd.Env = env
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			switch {
			case err == nil:
				t.Errorf("mutant %d survived: %s %s (%s)", i, m.Package, m.Run, m.Why)
			case !errors.As(err, &exit) || bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
				t.Errorf("mutant %d (%s) did not build or run: %v\n%s", i, m.File, err, out)
			case !bytes.Contains(out, []byte("--- FAIL")):
				t.Errorf("mutant %d (%s): %s %s failed without a failing test:\n%s", i, m.File, m.Package, m.Run, out)
			default:
				t.Logf("mutant %d killed by %s %s", i, m.Package, m.Run)
			}
		}()
	}
	wg.Wait()
}

// copyModule copies the tree without its git metadata to dir. The
// nested benchmark module comes along, because the documents the docs
// gate resolves name its files.
func copyModule(dir string) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, path), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, path), data, 0o644)
	})
}

package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	rangereach "repro"
)

// asMainEnv, when set, makes the test binary run rrgen's main instead
// of its tests, so TestBadIndexWritesNothing drives the real flag
// handling and exit paths.
const asMainEnv = "RRGEN_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestIndexMethodNames: the -index help text lists exactly the
// persistable methods, and indexMethod turns the others down: a method
// without a save format by name, with the saveable ones listed, and a
// name that is no method as unknown.
func TestIndexMethodNames(t *testing.T) {
	var want []string
	for _, name := range rangereach.MethodNames() {
		if m, _ := rangereach.ParseMethod(name); m.Persistable() {
			want = append(want, name)
		}
	}
	saveable := "(saveable methods: " + strings.Join(want, ", ") + ")"
	for _, name := range rangereach.MethodNames() {
		m, _ := rangereach.ParseMethod(name)
		if m.Persistable() {
			continue
		}
		_, err := indexMethod(name)
		if msg := "-index: " + m.String() + " has no save format " + saveable; err == nil || err.Error() != msg {
			t.Errorf("-index %s: error %v, want %q", name, err, msg)
		}
	}
	if _, err := indexMethod("no-such-method"); err == nil ||
		err.Error() != `unknown -index method "no-such-method"` {
		t.Errorf("-index no-such-method: error %v, want it unknown", err)
	}
	usage := flag.Lookup("index").Usage
	if list := "(" + strings.Join(want, ", ") + ")"; !strings.HasSuffix(usage, list) {
		t.Errorf("-index help is %q, want it to end in %s", usage, list)
	}
}

// TestBadIndexWritesNothing runs rrgen with an -index it cannot save,
// alone, with -emit-queries and with -shards: each run exits 2 naming
// the method, and leaves the output directory empty.
func TestBadIndexWritesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra []string
		want  string
	}{
		{"socreach", nil, "SocReach has no save format"},
		{"socreach", []string{"-emit-queries", "10"}, "SocReach has no save format"},
		{"socreach", []string{"-shards", "2"}, "SocReach has no save format"},
		{"no-such-method", nil, `unknown -index method "no-such-method"`},
	} {
		dir := t.TempDir()
		args := append([]string{"-preset", "gowalla-like", "-scale", "0.01",
			"-o", filepath.Join(dir, "x.gsn"), "-index", tc.name}, tc.extra...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), asMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("rrgen %v: %v, want exit 2; output:\n%s", args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("rrgen %v said %q, want it to name %q", args, out, tc.want)
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("rrgen %v wrote %d files, first %s", args, len(files), files[0].Name())
		}
	}
}

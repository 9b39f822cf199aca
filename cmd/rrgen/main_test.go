package main

import (
	"flag"
	"strings"
	"testing"

	rangereach "repro"
)

// TestIndexMethodNames: the -index help text lists exactly the
// persistable methods, and emitIndex turns the others down by name
// before it reads or builds anything.
func TestIndexMethodNames(t *testing.T) {
	var want []string
	for _, name := range rangereach.MethodNames() {
		if m, _ := rangereach.ParseMethod(name); m.Persistable() {
			want = append(want, name)
			continue
		}
		err := emitIndex("no-such-file.gsn", name, "", 1)
		if err == nil || !strings.Contains(err.Error(), "unknown -index method") {
			t.Errorf("-index %s: error %v, want the method refused", name, err)
		}
	}
	usage := flag.Lookup("index").Usage
	if list := "(" + strings.Join(want, ", ") + ")"; !strings.HasSuffix(usage, list) {
		t.Errorf("-index help is %q, want it to end in %s", usage, list)
	}
}

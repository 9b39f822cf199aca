package main

import (
	"flag"
	"strings"
	"testing"

	rangereach "repro"
)

// TestIndexMethodNames: the -index help text lists exactly the
// persistable methods, and emitIndex turns the others down before it
// reads or builds anything: a method without a save format by name,
// with the saveable ones listed, and a name that is no method as
// unknown.
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
		err := emitIndex("no-such-file.gsn", name, "", 1)
		if msg := "-index: " + m.String() + " has no save format " + saveable; err == nil || err.Error() != msg {
			t.Errorf("-index %s: error %v, want %q", name, err, msg)
		}
	}
	if err := emitIndex("no-such-file.gsn", "no-such-method", "", 1); err == nil ||
		err.Error() != `unknown -index method "no-such-method"` {
		t.Errorf("-index no-such-method: error %v, want it unknown", err)
	}
	usage := flag.Lookup("index").Usage
	if list := "(" + strings.Join(want, ", ") + ")"; !strings.HasSuffix(usage, list) {
		t.Errorf("-index help is %q, want it to end in %s", usage, list)
	}
}

package rangereach

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
)

// TestMethodTable walks methodTable, the one place a method is spelled
// out, and checks every view derived from it against the engines: the
// names parse back, String is the built engine's Name, the conversions
// to and from core.Method invert each other, Persistable agrees with
// Save, and a core method without a row is an error rather than a
// default.
func TestMethodTable(t *testing.T) {
	net, err := NewNetworkBuilder(3).AddEdge(0, 1).AddEdge(1, 2).SetPoint(2, 1, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	names := MethodNames()
	if len(names) != len(methodTable) {
		t.Fatalf("MethodNames has %d names for %d methods", len(names), len(methodTable))
	}
	listed := map[Method]bool{Naive: true, MethodAuto: true}
	for _, m := range append(append([]Method(nil), Methods...), ExtendedMethods...) {
		listed[m] = true
	}
	for m := range listed {
		if !m.known() {
			t.Errorf("method %d has no table row", int(m))
		}
	}
	for i, row := range methodTable {
		m := Method(i)
		if row.name == "" || row.flag == "" {
			t.Fatalf("method %d has no table row", i)
		}
		if !listed[m] {
			t.Errorf("%v is in neither Methods nor ExtendedMethods", m)
		}
		if names[i] != row.flag {
			t.Errorf("MethodNames()[%d] = %q, want %q", i, names[i], row.flag)
		}
		if got, ok := ParseMethod(row.flag); !ok || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", row.flag, got, ok)
		}
		if got, ok := ParseMethod(row.name); ok && got != m {
			t.Errorf("ParseMethod(%q) = %v: one method's display name is another's flag name", row.name, got)
		}

		idx, err := net.Build(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if m.String() != idx.engine.Name() {
			t.Errorf("%d.String() = %q, the engine calls itself %q", i, m, idx.engine.Name())
		}
		err = idx.Save(&bytes.Buffer{})
		if m.Persistable() != (err == nil) || (err != nil && !errors.Is(err, ErrNotPersistable)) {
			t.Errorf("%v: Persistable() = %v, Save says %v", m, m.Persistable(), err)
		}

		cm, ok := m.internal()
		if ok != (m != Naive) {
			t.Errorf("%v.internal() ok = %v", m, ok)
		}
		if !ok {
			continue
		}
		if cm.String() != row.name {
			t.Errorf("%v: core calls it %q", m, cm)
		}
		if back, err := methodFromCore(cm); err != nil || back != m {
			t.Errorf("methodFromCore(%v) = %v, %v, want %v", cm, back, err, m)
		}
	}

	if _, ok := ParseMethod("quantum"); ok {
		t.Error("ParseMethod accepted an unknown name")
	}
	// 7 and 8 are the reserved method bytes; 200 names nothing.
	for _, cm := range []core.Method{7, 8, 200, noCore} {
		if m, err := methodFromCore(cm); err == nil {
			t.Errorf("methodFromCore(%d) = %v, want an error", int(cm), m)
		}
	}
	if Method(len(methodTable)).Persistable() || Method(-1).Persistable() {
		t.Error("an unknown method is persistable")
	}
}

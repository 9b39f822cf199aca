package main

import (
	"flag"
	"strings"
	"testing"

	rangereach "repro"
)

func TestParseQuery(t *testing.T) {
	v, r, err := parseQuery("42 1.5 2.5 10 20")
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("vertex = %d", v)
	}
	if r != rangereach.NewRect(1.5, 2.5, 10, 20) {
		t.Errorf("rect = %+v", r)
	}
	// Corners normalize.
	_, r, err = parseQuery("0 10 20 1 2")
	if err != nil {
		t.Fatal(err)
	}
	if r.MinX != 1 || r.MaxY != 20 {
		t.Errorf("unnormalized rect %+v", r)
	}

	for _, bad := range []string{
		"", "1 2 3 4", "1 2 3 4 5 6", "x 1 2 3 4", "1 a 2 3 4",
	} {
		if _, _, err := parseQuery(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestMethodByName: the -method help text lists exactly the library's
// method names, so the flag cannot offer a name it then rejects.
func TestMethodByName(t *testing.T) {
	got := flag.Lookup("method").Usage
	if want := strings.Join(rangereach.MethodNames(), ", "); got != want {
		t.Errorf("-method help is %q, want %q", got, want)
	}
	if _, ok := rangereach.ParseMethod(flag.Lookup("method").DefValue); !ok {
		t.Error("the default -method is not a method name")
	}
}

// TestSaveIndexMethods: -save-index accepts exactly the persistable
// methods, and checkSaveMethod turns the others down by name, listing
// the saveable ones, before main reads or builds anything.
func TestSaveIndexMethods(t *testing.T) {
	var saveable []string
	for _, name := range rangereach.MethodNames() {
		if m, _ := rangereach.ParseMethod(name); m.Persistable() {
			saveable = append(saveable, name)
		}
	}
	if len(saveable) == 0 {
		t.Fatal("no method is persistable")
	}
	list := "(saveable methods: " + strings.Join(saveable, ", ") + ")"
	for _, name := range rangereach.MethodNames() {
		m, _ := rangereach.ParseMethod(name)
		err := checkSaveMethod(m)
		if m.Persistable() {
			if err != nil {
				t.Errorf("-save-index with %s: %v", name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), m.String()) || !strings.HasSuffix(err.Error(), list) {
			t.Errorf("-save-index with %s: error %v, want %v refused and the list %s", name, err, m, list)
		}
	}
}

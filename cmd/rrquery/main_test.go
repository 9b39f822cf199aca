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

package main

import (
	"flag"
	"strings"
	"testing"

	rangereach "repro"
)

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

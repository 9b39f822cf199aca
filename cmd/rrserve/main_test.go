package main

import (
	"flag"
	"strings"
	"testing"

	rangereach "repro"
)

func TestLoadNetwork(t *testing.T) {
	if _, err := loadNetwork("", "", 1, 1); err == nil {
		t.Error("no source accepted")
	}
	if _, err := loadNetwork("x.gsn", "yelp-like", 1, 1); err == nil {
		t.Error("both sources accepted")
	}
	if _, err := loadNetwork("", "atlantis-like", 1, 1); err == nil {
		t.Error("unknown preset accepted")
	}
	net, err := loadNetwork("", "Gowalla-Like", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumVertices() == 0 {
		t.Error("empty synthetic network")
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

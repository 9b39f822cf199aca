// Command rrlint runs the project's static-analysis suite
// (internal/lint) over the whole module: stdlib-only analyzers for
// nil-safe trace spans, clock-free hot paths, deterministic randomness,
// checked errors, locks released on every return, and defers in loops.
//
// Usage:
//
//	go run ./cmd/rrlint ./...
//	go run ./cmd/rrlint -list
//	go run ./cmd/rrlint -only errcheck ./...
//
// The package pattern argument is accepted for familiarity but the
// whole module is always analyzed. Exit status: 0 clean, 1 findings,
// 2 load failure.
//
// Suppress an individual finding with a justified directive on the
// offending line or the line above:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	var (
		list = flag.Bool("list", false, "list the analyzers and exit")
		only = flag.String("only", "", "run a single analyzer by name")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *only != "" {
		a := lint.ByName(*only)
		if a == nil {
			fmt.Fprintf(os.Stderr, "rrlint: unknown analyzer %q\n", *only)
			os.Exit(2)
		}
		analyzers = []*lint.Analyzer{a}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrlint: %v\n", err)
		os.Exit(2)
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrlint: %v\n", err)
		os.Exit(2)
	}
	findings := lint.Run(mod, analyzers)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "rrlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

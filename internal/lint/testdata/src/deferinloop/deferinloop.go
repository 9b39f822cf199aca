// Fixture for the deferinloop analyzer: defers in a loop body
// accumulate one pending call per iteration.
package deferinloop

import "os"

func leak(paths []string) error {
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close() // want "defer inside a loop"
	}
	return nil
}

func threeClause(paths []string) error {
	for i := 0; i < len(paths); i++ {
		if paths[i] == "" {
			continue
		}
		f, err := os.Open(paths[i])
		if err != nil {
			return err
		}
		defer f.Close() // want "defer inside a loop"
	}
	return nil
}

func hoisted(paths []string) error {
	for _, p := range paths {
		if err := func() error {
			f, err := os.Open(p)
			if err != nil {
				return err
			}
			// The literal is its own function: the defer releases
			// every iteration.
			defer f.Close()
			return nil
		}(); err != nil {
			return err
		}
	}
	return nil
}

func loopInLiteral(paths []string) func() {
	return func() {
		for range paths {
			defer println() // want "defer inside a loop"
		}
	}
}

func topLevel(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return nil
}

func afterLoop(paths []string) error {
	for _, p := range paths {
		_ = p
	}
	f, err := os.Open("summary")
	if err != nil {
		return err
	}
	defer f.Close() // after the loop: fine
	return nil
}

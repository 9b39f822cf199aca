package trace

import (
	"sync"
	"testing"
)

// TestBuildSpanConcurrentPhases: parallel pipeline stages End their
// phases while a reader lists them — the race detector's verdict — and
// repeated names merge into one phase, listed by name.
func TestBuildSpanConcurrentPhases(t *testing.T) {
	b := &BuildSpan{}
	names := []string{"spatial", "labeling"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.End(names[i%2], b.Start())
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if got := b.Phases(); len(got) > len(names) {
				t.Errorf("%d phases for %d names: %+v", len(got), len(names), got)
				return
			}
		}
	}()
	wg.Wait()
	got := b.Phases()
	if len(got) != 2 || got[0].Name != "labeling" || got[1].Name != "spatial" {
		t.Fatalf("Phases() = %+v, want labeling then spatial", got)
	}

	var off *BuildSpan
	off.End("labeling", off.Start())
	if off.Phases() != nil {
		t.Error("a nil BuildSpan recorded a phase")
	}
}

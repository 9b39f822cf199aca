package trace

import (
	"sort"
	"sync"
	"time"
)

// BuildPhase is the recorded duration of one named index-construction
// phase — "labeling", "spatial", "members" and the like. Phases are the
// build-time analogue of the per-query Stage durations: they let
// rrbench and the server attribute build wall-clock to pipeline stages
// instead of reporting a single opaque build_ms.
type BuildPhase struct {
	Name     string
	Duration time.Duration
}

// BuildSpan accumulates named phase durations during index
// construction. Unlike the per-query Span it is mutex-protected:
// parallel build pipelines time concurrent phases from multiple
// goroutines. A nil *BuildSpan disables collection — every method is
// safe to call and reduces to one branch, mirroring the Span
// convention.
type BuildSpan struct {
	mu     sync.Mutex
	phases []BuildPhase // guarded by mu
}

// Start returns the current time when the span is enabled, the zero
// time otherwise. Pair with End.
func (b *BuildSpan) Start() time.Time {
	if b == nil {
		return time.Time{}
	}
	return time.Now()
}

// End accumulates the elapsed time since start into the named phase.
// Repeated Ends with one name merge into a single phase, so per-member
// sub-builds of the same kind aggregate. A no-op on a nil span.
func (b *BuildSpan) End(name string, start time.Time) {
	if b == nil {
		return
	}
	b.Add(name, time.Since(start))
}

// Add accumulates d into the named phase directly. A no-op on a nil
// span.
func (b *BuildSpan) Add(name string, d time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.phases {
		if b.phases[i].Name == name {
			b.phases[i].Duration += d
			return
		}
	}
	b.phases = append(b.phases, BuildPhase{Name: name, Duration: d})
}

// Phases returns the recorded phases sorted by name. Sorting — rather
// than first-recorded order — keeps the output deterministic when
// concurrent pipeline stages race to record their first sample.
// Returns nil on a nil span.
func (b *BuildSpan) Phases() []BuildPhase {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]BuildPhase, len(b.phases))
	copy(out, b.phases)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

package trace

import (
	"testing"
	"time"
)

// TestNilSpanSafe exercises every method on a nil span: the disabled
// path must be a no-op, never a panic.
func TestNilSpanSafe(t *testing.T) {
	var sp *Span
	sp.AddLabels(3)
	sp.IncNode()
	sp.IncLeaf()
	sp.AddEntries(7)
	sp.IncCandidate()
	sp.IncReachProbe()
	sp.IncGraphVisited()
	sp.AddEnumerated(2)
	sp.IncMember()
	if start := sp.Start(); !start.IsZero() {
		t.Error("nil span Start() should return the zero time")
	}
	sp.End(StageSpatial, time.Time{})
	if sp.Enabled() {
		t.Error("nil span reports Enabled")
	}
}

func TestSpanCounts(t *testing.T) {
	var sp Span
	sp.AddLabels(2)
	sp.AddLabels(1)
	sp.IncNode()
	sp.IncNode()
	sp.IncLeaf()
	sp.AddEntries(5)
	sp.AddOverlay(3)
	sp.IncCandidate()
	sp.IncReachProbe()
	sp.IncGraphVisited()
	sp.AddEnumerated(4)
	sp.IncMember()
	want := Counters{
		Labels: 3, IndexNodes: 2, IndexLeaves: 1, IndexEntries: 8, Overlay: 3,
		Candidates: 1, ReachProbes: 1, GraphVisited: 1, Enumerated: 4,
		Members: 1,
	}
	if sp.Counters != want {
		t.Errorf("counters = %+v, want %+v", sp.Counters, want)
	}
	if !sp.Enabled() {
		t.Error("non-nil span not Enabled")
	}

	sp.Reset()
	if sp.Counters != (Counters{}) {
		t.Errorf("Reset left counters %+v", sp.Counters)
	}
}

func TestSpanStageTiming(t *testing.T) {
	var sp Span
	start := sp.Start()
	if start.IsZero() {
		t.Fatal("enabled span Start() returned zero time")
	}
	time.Sleep(time.Millisecond)
	sp.End(StageReach, start)
	if sp.Durations[StageReach] <= 0 {
		t.Errorf("StageReach duration = %v, want > 0", sp.Durations[StageReach])
	}
	if sp.Durations[StageSpatial] != 0 {
		t.Errorf("untouched stage has duration %v", sp.Durations[StageSpatial])
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{Labels: 1, IndexNodes: 2, Overlay: 2, Members: 3}
	b := Counters{Labels: 10, Overlay: 7, Candidates: 5, Members: 1}
	a.Add(b)
	if a.Labels != 11 || a.IndexNodes != 2 || a.Overlay != 9 || a.Candidates != 5 || a.Members != 4 {
		t.Errorf("Add produced %+v", a)
	}
}

func TestStageStrings(t *testing.T) {
	seen := map[string]bool{}
	for st := Stage(0); st < NumStages; st++ {
		name := st.String()
		if name == "unknown" || name == "" {
			t.Errorf("stage %d has no name", st)
		}
		if seen[name] {
			t.Errorf("duplicate stage name %q", name)
		}
		seen[name] = true
	}
}

package bench

import (
	"fmt"
	"testing"

	"repro/internal/incr"
)

// opLog records the ops a churn stream makes on the index it wraps.
type opLog struct {
	*incr.Index
	ops []string
}

func (l *opLog) AddUser() int {
	id := l.Index.AddUser()
	l.ops = append(l.ops, fmt.Sprint("add_user ", id))
	return id
}

func (l *opLog) AddVenue(px, py float64) int {
	id := l.Index.AddVenue(px, py)
	l.ops = append(l.ops, fmt.Sprint("add_venue ", id, px, py))
	return id
}

func (l *opLog) DeleteEdge(u, v int) error {
	l.ops = append(l.ops, fmt.Sprint("del_edge ", u, v))
	return l.Index.DeleteEdge(u, v)
}

func (l *opLog) MoveVenue(v int, px, py float64) error {
	l.ops = append(l.ops, fmt.Sprint("move_venue ", v, px, py))
	return l.Index.MoveVenue(v, px, py)
}

func (l *opLog) AddEdge(u, v int) error {
	l.ops = append(l.ops, fmt.Sprint("add_edge ", u, v))
	return l.Index.AddEdge(u, v)
}

// TestChurnStreamDeterministic: two churn streams with the same seed
// over the same network make the same ops, coordinates included, and
// leave indexes with the same Stats, so both arms of update-churn and
// every rerun replay one sequence.
func TestChurnStreamDeterministic(t *testing.T) {
	s, _ := tinySuite(t, "gowalla-like")
	run := func() ([]string, incr.Stats) {
		x := &opLog{Index: incr.New(s.preps[0], incr.Options{})}
		g := newChurnOps(s.nets[0], 7)
		for i := 0; i < 2000; i++ {
			g.apply(x)
			if (i+1)%churnPublishEvery == 0 {
				x.Snapshot()
			}
		}
		return x.ops, x.Stats()
	}
	ops1, st1 := run()
	ops2, st2 := run()
	if len(ops1) != len(ops2) {
		t.Fatalf("the streams made %d and %d ops", len(ops1), len(ops2))
	}
	for i := range ops1 {
		if ops1[i] != ops2[i] {
			t.Fatalf("op %d differs: %q, then %q", i, ops1[i], ops2[i])
		}
	}
	if st1 != st2 {
		t.Errorf("the streams left different indexes: %+v, then %+v", st1, st2)
	}
}

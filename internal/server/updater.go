package server

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	rangereach "repro"
	"repro/internal/metrics"
)

// errClosed reports an update submitted to a server that has shut down.
var errClosed = errors.New("server: closed")

// errPublishCheck reports a batch dropped because the snapshot it
// produced failed publish-time validation (-check-publish).
var errPublishCheck = errors.New("snapshot failed publish-time validation")

// publishedSnapshot pairs an immutable snapshot with the generation it
// belongs to, as the view a request reads. Readers load the pair with
// one atomic pointer load, so a result cached under gen G is always an
// answer computed against the matching snapshot. stats is the index's
// state when the snapshot was taken — only the writer may ask the
// index, so it asks at publish time and the rr_incr_* gauges read the
// published copy.
type publishedSnapshot struct {
	view
	stats rangereach.UpdateStats
}

func publish(idx *rangereach.DynamicIndex, snap *rangereach.DynamicSnapshot, gen uint64) *publishedSnapshot {
	return &publishedSnapshot{view: view{reader: snap, vertices: snap.NumVertices(), gen: gen}, stats: idx.UpdateStats()}
}

// op kinds for updateOp.
const (
	opAddUser = iota
	opAddVenue
	opAddEdge
	opDelEdge
	opMoveVenue
)

type updateOp struct {
	kind     int
	x, y     float64
	from, to int
	vertex   int               // opMoveVenue: the venue to relocate
	reply    chan updateResult // buffered, written exactly once
}

type updateResult struct {
	id  int
	err error
}

// updater realizes the single-writer / snapshot-swap concurrency design
// for dynamic mode: all mutations are serialized onto one goroutine
// that owns the DynamicIndex exclusively, and after absorbing each
// batch of queued updates it publishes a fresh immutable snapshot via
// an atomic pointer. Readers load the pointer and query the snapshot —
// they never block on writers, never take a lock, and always see a
// consistent point-in-time state. Updates queued while a snapshot is
// being taken coalesce into the next publish, so a burst of k updates
// costs far fewer than k snapshots.
type updater struct {
	idx      *rangereach.DynamicIndex
	snap     atomic.Pointer[publishedSnapshot]
	ops      chan updateOp
	quit     chan struct{}
	done     chan struct{}
	snapTime *metrics.Histogram // rr_build_seconds{phase="snapshot"}

	// checkPublish validates every snapshot before it is published
	// (rrserve -check-publish). A snapshot that fails validation is
	// dropped — readers keep the last good one — and the whole batch
	// that produced it is failed back to its clients; checkFails counts
	// those events.
	checkPublish bool
	checkFails   *metrics.Counter
}

func newUpdater(idx *rangereach.DynamicIndex, snapTime *metrics.Histogram, checkPublish bool, checkFails *metrics.Counter) *updater {
	u := &updater{
		idx:          idx,
		ops:          make(chan updateOp, 256),
		quit:         make(chan struct{}),
		done:         make(chan struct{}),
		snapTime:     snapTime,
		checkPublish: checkPublish,
		checkFails:   checkFails,
	}
	u.snap.Store(publish(idx, idx.Snapshot(), 0))
	go u.loop()
	return u
}

// current returns the latest published snapshot.
func (u *updater) current() *publishedSnapshot { return u.snap.Load() }

// submit queues one update and waits for its result, honoring ctx and
// server shutdown.
func (u *updater) submit(ctx context.Context, op updateOp) updateResult {
	op.reply = make(chan updateResult, 1)
	select {
	case u.ops <- op:
	case <-u.quit:
		return updateResult{err: errClosed}
	case <-ctx.Done():
		return updateResult{err: ctx.Err()}
	}
	select {
	case res := <-op.reply:
		return res
	case <-u.done:
		// The loop exited; it may still have replied just before. Prefer
		// the real result when it is there.
		select {
		case res := <-op.reply:
			return res
		default:
			return updateResult{err: errClosed}
		}
	}
}

// close stops the loop. Safe to call once; pending submits unblock with
// errClosed.
func (u *updater) close() {
	close(u.quit)
	<-u.done
}

func (u *updater) loop() {
	defer close(u.done)
	gen := uint64(0)
	var pending []updateOp
	for {
		pending = pending[:0]
		select {
		case op := <-u.ops:
			pending = append(pending, op)
		case <-u.quit:
			return
		}
		// Coalesce everything already queued into this publish.
	drain:
		for {
			select {
			case op := <-u.ops:
				pending = append(pending, op)
			default:
				break drain
			}
		}
		results := make([]updateResult, len(pending))
		for i, op := range pending {
			results[i] = u.apply(op)
		}
		start := time.Now()
		snap := u.idx.Snapshot()
		if u.checkPublish {
			if err := snap.Validate(); err != nil {
				// The patched state is corrupt: never publish it. Readers
				// keep the last good snapshot and the whole batch fails
				// loudly, so the client knows its writes are not visible.
				u.checkFails.Inc()
				verr := fmt.Errorf("server: %w: %v", errPublishCheck, err)
				for i := range results {
					if results[i].err == nil {
						results[i] = updateResult{id: -1, err: verr}
					}
				}
				for i, op := range pending {
					op.reply <- results[i]
				}
				continue
			}
		}
		gen++
		u.snap.Store(publish(u.idx, snap, gen))
		u.snapTime.Observe(time.Since(start).Seconds())
		// Reply only after the snapshot is published: a client whose
		// update returned 200 is guaranteed to observe it in subsequent
		// queries (read-your-writes).
		for i, op := range pending {
			op.reply <- results[i]
		}
	}
}

func (u *updater) apply(op updateOp) updateResult {
	switch op.kind {
	case opAddUser:
		return updateResult{id: u.idx.AddUser()}
	case opAddVenue:
		return updateResult{id: u.idx.AddVenue(op.x, op.y)}
	case opAddEdge:
		return updateResult{id: -1, err: u.idx.AddEdge(op.from, op.to)}
	case opDelEdge:
		return updateResult{id: -1, err: u.idx.DeleteEdge(op.from, op.to)}
	case opMoveVenue:
		return updateResult{id: -1, err: u.idx.MoveVenue(op.vertex, op.x, op.y)}
	default:
		return updateResult{id: -1, err: errors.New("server: unknown update op")}
	}
}

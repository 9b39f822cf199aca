package rangereach

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Query is one RangeReach query for batch evaluation.
type Query struct {
	Vertex int
	Region Rect
}

// RangeReachBatch answers a batch of queries, fanning them out over
// parallelism goroutines (0 selects GOMAXPROCS). The result slice aligns
// with the input. Every static index is safe for concurrent queries;
// DynamicIndex is not (updates and queries must be externally
// serialized), but its snapshots are (DynamicSnapshot.RangeReachBatchContext).
func (idx *Index) RangeReachBatch(queries []Query, parallelism int) []bool {
	out, _ := idx.RangeReachBatchContext(context.Background(), queries, parallelism)
	return out
}

// RangeReachBatchContext is RangeReachBatch with cancellation: workers
// check ctx between chunks and stop early, returning ctx.Err() and a
// nil result slice. A server whose client has disconnected stops
// burning CPU within one chunk per worker instead of finishing the
// batch into the void.
func (idx *Index) RangeReachBatchContext(ctx context.Context, queries []Query, parallelism int) ([]bool, error) {
	return rangeReachBatch(ctx, idx, queries, parallelism)
}

// RangeReachBatchContext answers a batch of queries against the
// captured state, as Index.RangeReachBatchContext does: over
// parallelism goroutines (0 selects GOMAXPROCS), cancelled by ctx
// between chunks.
func (s *DynamicSnapshot) RangeReachBatchContext(ctx context.Context, queries []Query, parallelism int) ([]bool, error) {
	return rangeReachBatch(ctx, s, queries, parallelism)
}

// reader is what the batch loop needs of an index or a snapshot.
type reader interface {
	RangeReach(v int, r Rect) bool
}

// rangeReachBatch is the one batch loop of both readers. Up to
// parallelism workers, the calling goroutine one of them, steal chunks
// off a single atomic cursor: each claims the next chunk with one Add,
// no lock on the hot path. A one-worker batch starts no goroutine and
// allocates only its answers. R is a type parameter, not an interface
// value or a func, so that a call boxes no method value.
func rangeReachBatch[R reader](ctx context.Context, idx R, queries []Query, parallelism int) ([]bool, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	out := make([]bool, len(queries))
	if workers := min(parallelism, (len(queries)+batchChunk-1)/batchChunk); workers > 1 {
		next := new(atomic.Int64)
		var wg sync.WaitGroup
		wg.Add(workers - 1)
		for range workers - 1 {
			go func() {
				defer wg.Done()
				drainBatch(ctx, idx, queries, out, next)
			}()
		}
		drainBatch(ctx, idx, queries, out, next)
		wg.Wait()
	} else {
		drainBatch(ctx, idx, queries, out, new(atomic.Int64))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// batchChunk is the queries a worker claims at once.
const batchChunk = 16

// drainBatch answers the chunks it claims off next until none is left
// or ctx is done. Claims may overshoot len(queries). The ctx poll rides
// the chunk boundary, so cancellation costs one atomic load per chunk.
func drainBatch[R reader](ctx context.Context, idx R, queries []Query, out []bool, next *atomic.Int64) {
	for ctx.Err() == nil {
		hi := int(next.Add(batchChunk))
		lo := hi - batchChunk
		if lo >= len(queries) {
			return
		}
		for i := lo; i < min(hi, len(queries)); i++ {
			out[i] = idx.RangeReach(queries[i].Vertex, queries[i].Region)
		}
	}
}

package check

import "fmt"

// The sparse validators cover the incremental engine (internal/incr),
// whose condensation keeps retired component slots around: merges and
// splits kill components and their post numbers are never reused, so
// live posts are unique in [1, maxPost] but not dense. Dead posts may
// linger inside label intervals; that is sound as long as no live
// entry ever carries a dead post, which the engine's own spatial
// validation checks. Here we check everything expressible over the
// condensation alone.

// SparsePosts validates a sparse post assignment: dead slots hold 0,
// live slots hold distinct posts in [1, maxPost].
func SparsePosts(alive []bool, post []int32, maxPost int32) error {
	if len(alive) != len(post) {
		return fmt.Errorf("check: %d alive flags but %d post slots", len(alive), len(post))
	}
	seen := make(map[int32]int, len(post))
	for c, p := range post {
		if !alive[c] {
			if p != 0 {
				return fmt.Errorf("check: dead component %d still has post %d", c, p)
			}
			continue
		}
		if p < 1 || p > maxPost {
			return fmt.Errorf("check: component %d has post %d outside [1,%d]", c, p, maxPost)
		}
		if prev, dup := seen[p]; dup {
			return fmt.Errorf("check: components %d and %d share post %d", prev, c, p)
		}
		seen[p] = c
	}
	return nil
}

// SparseLabels validates the live components' label sets: well-formed
// and containing the component's own post.
func SparseLabels(alive []bool, post []int32, at labelSource) error {
	for c := range post {
		if !alive[c] {
			continue
		}
		s := at(c)
		if err := Set(c, s); err != nil {
			return err
		}
		if !s.ContainsCanonical(post[c]) {
			return fmt.Errorf("check: component %d: label set %v does not contain own post %d", c, s, post[c])
		}
	}
	return nil
}

// SparseEdges validates the condensation's edge set: endpoints live,
// per-edge label nesting (Lemma 3.1), and acyclicity via Kahn's
// algorithm over the live components.
func SparseEdges(alive []bool, post []int32, at labelSource, edges func(fn func(u, v int))) error {
	n := len(alive)
	var firstErr error
	indeg := make([]int32, n)
	adj := make([][]int32, n)
	edges(func(u, v int) {
		if firstErr != nil {
			return
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			firstErr = fmt.Errorf("check: condensation edge (%d,%d) out of range [0,%d)", u, v, n)
			return
		}
		if !alive[u] || !alive[v] {
			firstErr = fmt.Errorf("check: condensation edge (%d,%d) touches a dead component", u, v)
			return
		}
		if u == v {
			firstErr = fmt.Errorf("check: condensation has self-loop on component %d", u)
			return
		}
		firstErr = edgeNesting(u, v, post, "post", at)
		adj[u] = append(adj[u], int32(v))
		indeg[v]++
	})
	if firstErr != nil {
		return firstErr
	}
	// Kahn's algorithm over live components; dead ones carry no edges
	// (checked above) so they order trivially.
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, v := range adj[u] {
			if indeg[v]--; indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("check: sparse condensation contains a cycle (%d of %d slots ordered)", seen, n)
	}
	return nil
}

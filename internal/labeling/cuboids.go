package labeling

import (
	"repro/internal/geom"
	"repro/internal/intervals"
)

// MeetsCuboids reports whether b meets r × [iv.Lo, iv.Hi] for some
// interval iv of the canonical label: the union of the cuboids 3DReach
// queries for L(v) (paper §4.2), tested in O(log |label|). It is the
// one pruning predicate of the static and the dynamic 3DReach
// traversals, on node bounds and on entries alike. b must come from a
// 3DReach index: entry z is a post-order number and node bounds are
// unions of entries, so the float z bounds convert to posts exactly.
func MeetsCuboids(b *geom.Box3, r geom.Rect, label intervals.Set) bool {
	return b.Rect().Intersects(r) && label.OverlapsCanonical(int32(b.Min.Z), int32(b.Max.Z))
}

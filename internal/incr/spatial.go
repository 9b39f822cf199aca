package incr

import (
	"repro/internal/geom"
	"repro/internal/rtree"
)

// patchVenue installs venue v's current entry — its geometry at
// z = post(comp(v)) — without touching the immutable base tree. A
// venue already in the overlay is replaced in its slot (snapshots copy
// the overlay by value, so in-place replacement by the single writer
// is safe); a venue whose entry lives in the base gets a tombstone
// there and a fresh overlay entry. When overlay plus tombstones grow
// past the fold threshold, everything is folded into a new base.
func (x *Index) patchVenue(v int32) {
	z := float64(x.post.at(x.comp.at(v)))
	entry := rtree.Entry[geom.Box3]{
		Box: geom.Box3FromRect(x.geo[v], z, z),
		ID:  v,
	}
	if i, ok := x.overlayIdx[v]; ok {
		x.overlay[i] = entry
	} else {
		if x.overlayIdx == nil {
			x.overlayIdx = make(map[int32]int)
		}
		x.overlayIdx[v] = len(x.overlay)
		x.overlay = append(x.overlay, entry)
		if x.inBase[v] {
			if x.stale == nil {
				x.stale = make(map[int32]struct{})
			}
			x.stale[v] = struct{}{}
		}
	}
	x.maybeFold()
}

// maybeFold bounds the patch structures: once the overlay scan plus
// tombstone lookups would cost more than an eighth of a fresh base's
// entries, fold. Below OverlayMin the base is never rebuilt, keeping
// small-churn workloads allocation-light.
func (x *Index) maybeFold() {
	pending := len(x.overlay) + len(x.stale)
	if pending >= x.opts.OverlayMin && pending*8 >= x.base.Len()+len(x.overlay) {
		x.foldBase()
	}
}

// occGrid is a coarse fixed-resolution occupancy grid over the venue
// space — the GeoReach idea reduced to its cheapest useful form. Each
// cell counts the venues whose geometry intersects it; a query region
// covering only empty cells cannot contain a venue, so the engine can
// answer false without touching labels or trees. Venues outside the
// initial space clamp to the border cells, which keeps the filter
// conservative on both sides: such a venue inflates border counts, and
// a query reaching past the border clamps onto those same cells.
type occGrid struct {
	min    geom.Point
	cw, ch float64 // cell width and height
	nx, ny int
	cells  []int32
	total  int
}

const occGridDim = 64

func newOccGrid(space geom.Rect) *occGrid {
	w := space.Max.X - space.Min.X
	h := space.Max.Y - space.Min.Y
	// A degenerate axis (all venues collinear, or an empty network)
	// gets unit extent so cell sizes stay positive.
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	g := &occGrid{
		min: space.Min,
		nx:  occGridDim,
		ny:  occGridDim,
	}
	g.cw = w / float64(g.nx)
	g.ch = h / float64(g.ny)
	g.cells = make([]int32, g.nx*g.ny)
	return g
}

// cellRange returns the clamped cell-index range covered by r.
func (g *occGrid) cellRange(r geom.Rect) (x0, y0, x1, y1 int) {
	x0 = clampCell(int((r.Min.X-g.min.X)/g.cw), g.nx)
	x1 = clampCell(int((r.Max.X-g.min.X)/g.cw), g.nx)
	y0 = clampCell(int((r.Min.Y-g.min.Y)/g.ch), g.ny)
	y1 = clampCell(int((r.Max.Y-g.min.Y)/g.ch), g.ny)
	return
}

func clampCell(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

func (g *occGrid) add(r geom.Rect) {
	x0, y0, x1, y1 := g.cellRange(r)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			g.cells[y*g.nx+x]++
		}
	}
	g.total++
}

func (g *occGrid) remove(r geom.Rect) {
	x0, y0, x1, y1 := g.cellRange(r)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			g.cells[y*g.nx+x]--
		}
	}
	g.total--
}

// maybe reports whether any venue might intersect r. False is exact:
// every cell r touches is empty.
func (g *occGrid) maybe(r geom.Rect) bool {
	if g.total == 0 {
		return false
	}
	x0, y0, x1, y1 := g.cellRange(r)
	// A near-whole-space region would scan thousands of cells for a
	// filter that almost certainly passes; skip the scan.
	if (x1-x0+1)*(y1-y0+1) > 1024 {
		return true
	}
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			if g.cells[y*g.nx+x] > 0 {
				return true
			}
		}
	}
	return false
}

// clone returns a private copy for snapshots.
func (g *occGrid) clone() *occGrid {
	c := *g
	c.cells = append([]int32(nil), g.cells...)
	return &c
}

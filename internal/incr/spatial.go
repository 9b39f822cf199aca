package incr

import (
	"cmp"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/intervals"
	"repro/internal/tiles"
	"repro/internal/trace"
)

// Spatial state. Every live venue has exactly one live entry, keyed by
// post(comp(v)):
//   - in the base, the tiles the static engine uses (internal/tiles)
//     over the point venues as of the last fold, unless a tombstone in
//     the paged dead column supersedes it;
//   - or in the overlay: the venues patched since the last fold, and
//     every venue with an extent, which never folds. It is bucketed by
//     occupancy-grid cell, an extent replicated into each cell it
//     covers.
//
// A patch (patchVenue) only tombstones the base entry and queues the
// venue; the next flush (flushSpatial, at the next read or snapshot)
// rebuilds the overlay rows the queued venues leave or enter, and folds
// everything into a new base once the entries a fold would move, plus
// the tombstones, pass an eighth of the base.

// overlay is the venue entries outside the base, one ovRow per grid
// row (nil for a row without entries). It is immutable once built:
// snapshots share it by pointer, and a flush builds a new one that
// shares every row it did not change, so a flush costs the rows the
// epoch touched. The empty overlay has no rows.
type overlay struct {
	rows   []*ovRow
	n      int // entries
	points int // entries whose box is a point: the venues a fold would move
}

// ovRow is one grid row's entries in (cell, post, id) order: the row's
// x-th cell holds start[x]..start[x+1]-1.
type ovRow struct {
	start    []int32
	post, id []int32
	box      []geom.Rect
}

// ovEntry is one overlay entry while an overlay is being built; cell is
// the grid cell's index, y*nx + x.
type ovEntry struct {
	cell, post, id int32
	box            geom.Rect
}

func compareEntries(a, b ovEntry) int {
	return cmp.Or(cmp.Compare(a.cell, b.cell), cmp.Compare(a.post, b.post), cmp.Compare(a.id, b.id))
}

func isPoint(r geom.Rect) bool { return r.Min == r.Max }

func (o *overlay) memoryBytes() int64 {
	b := int64(8 * len(o.rows))
	for _, row := range o.rows {
		if row != nil {
			b += int64(40*len(row.post) + 4*len(row.start))
		}
	}
	return b
}

// update returns a new overlay: o without the entries of the venues
// marks holds, plus fresh, sorted by compareEntries. A row with neither
// is shared with o.
func (o *overlay) update(marks *flagSet, fresh []ovEntry, g *occGrid) *overlay {
	next := &overlay{rows: make([]*ovRow, g.ny), n: o.n, points: o.points}
	copy(next.rows, o.rows)
	var drop []int
	for y, f := 0, 0; y < g.ny; y++ {
		f0 := f
		for f < len(fresh) && int(fresh[f].cell)/g.nx == y {
			f++
		}
		row := next.rows[y]
		drop = drop[:0]
		if row != nil {
			for i, id := range row.id {
				if marks.has(id, 1) {
					drop = append(drop, i)
				}
			}
		}
		if f0 == f && len(drop) == 0 {
			continue
		}
		for _, i := range drop {
			if isPoint(row.box[i]) {
				next.points--
			}
		}
		for _, e := range fresh[f0:f] {
			if isPoint(e.box) {
				next.points++
			}
		}
		next.n += f - f0 - len(drop)
		next.rows[y] = row.merge(drop, fresh[f0:f], y, g.nx)
	}
	if next.n == 0 {
		return &overlay{}
	}
	return next
}

// merge returns a new row y holding r's entries but those at the
// ascending positions drop, plus fresh, sorted by compareEntries; nil
// if none remain. r may be nil.
func (r *ovRow) merge(drop []int, fresh []ovEntry, y, nx int) *ovRow {
	var old ovRow
	if r != nil {
		old = *r
	}
	total := len(old.post) - len(drop) + len(fresh)
	if total == 0 {
		return nil
	}
	next := &ovRow{
		start: make([]int32, nx+1),
		post:  make([]int32, 0, total),
		id:    make([]int32, 0, total),
		box:   make([]geom.Rect, 0, total),
	}
	emit := func(e ovEntry) {
		next.start[int(e.cell)-y*nx+1]++
		next.post = append(next.post, e.post)
		next.id = append(next.id, e.id)
		next.box = append(next.box, e.box)
	}
	f, x := 0, 0
	for i := range old.post {
		for int(old.start[x+1]) <= i {
			x++
		}
		if len(drop) > 0 && drop[0] == i {
			drop = drop[1:]
			continue
		}
		e := ovEntry{int32(y*nx + x), old.post[i], old.id[i], old.box[i]}
		for ; f < len(fresh) && compareEntries(fresh[f], e) < 0; f++ {
			emit(fresh[f])
		}
		emit(e)
	}
	for ; f < len(fresh); f++ {
		emit(fresh[f])
	}
	for x := 1; x <= nx; x++ {
		next.start[x] += next.start[x-1]
	}
	return next
}

// any reports whether an overlay entry in a grid cell that r meets has
// its post in label and its box meeting r. The entries of a cell r
// contains need no geometry test: an entry in it meets the cell, and so
// r. sp counts, as overlay entries, the entries whose box it tested.
func (o *overlay) any(g *occGrid, r geom.Rect, label intervals.Set, sp *trace.Span) bool {
	if o.n == 0 || len(label) == 0 {
		return false
	}
	x0, y0, x1, y1 := g.cellRange(r)
	tested := 0
	for y := y0; y <= y1; y++ {
		row := o.rows[y]
		if row == nil || row.start[x0] == row.start[x1+1] {
			continue // no entry in the row's cells
		}
		for x := x0; x <= x1; x++ {
			a, b := int(row.start[x]), int(row.start[x+1])
			if a == b {
				continue
			}
			inside := x0 < x && x < x1 && y0 < y && y < y1
			n, hit := row.cellAny(a, b, r, label, inside)
			if tested += n; hit {
				sp.AddOverlay(tested)
				return true
			}
		}
	}
	sp.AddOverlay(tested)
	return false
}

// cellAny scans entries a..b-1, sorted by post, with a cursor on the
// label that skips by binary search; it reports how many boxes it tested
// and whether one answered.
func (row *ovRow) cellAny(a, b int, r geom.Rect, label intervals.Set, inside bool) (tested int, hit bool) {
	j := 0
	for k, p := range row.post[a:b] {
		if label[j].Hi < p {
			if j += label[j:].FirstEndingAt(p); j == len(label) {
				break
			}
		}
		if p < label[j].Lo {
			continue
		}
		if inside {
			return tested, true
		}
		tested++
		if row.box[a+k].Intersects(r) {
			return tested, true
		}
	}
	return tested, false
}

// entries appends venue v's overlay entries, one per grid cell its
// geometry covers.
func (x *Index) entries(dst []ovEntry, v int32) []ovEntry {
	box := x.geo[v]
	p := x.post.at(x.comp.at(v))
	x0, y0, x1, y1 := x.grid.cellRange(box)
	for y := y0; y <= y1; y++ {
		for cx := x0; cx <= x1; cx++ {
			dst = append(dst, ovEntry{int32(y*x.grid.nx + cx), p, v, box})
		}
	}
	return dst
}

// patchVenue records that venue v's entry changed — its geometry, or
// the post of its component — without touching the immutable base: a
// live base entry gets a tombstone, and v is queued for the next flush.
func (x *Index) patchVenue(v int32) {
	if k := x.basePos[v]; k >= 0 && !x.dead.at(k) {
		x.dead.set(k, true)
		x.tombs++
	}
	x.patched = append(x.patched, v)
}

// flushSpatial moves the queued venues into a new overlay, then folds
// if the patch structures have grown past an eighth of the base, and at
// least defaultOverlayMin, which keeps small-churn workloads
// allocation-light. A dirty epoch leaves the queue to the rebuild.
func (x *Index) flushSpatial() {
	if len(x.patched) == 0 || x.dirty {
		return
	}
	slices.Sort(x.patched)
	queued := slices.Compact(x.patched)
	var fresh []ovEntry
	for _, v := range queued {
		fresh = x.entries(fresh, v)
	}
	slices.SortFunc(fresh, compareEntries)
	x.marks.begin(x.n)
	for _, v := range queued {
		x.marks.set(v, 1)
	}
	x.ov = x.ov.update(&x.marks, fresh, x.grid)
	x.patched = x.patched[:0]
	pending := x.ov.points + x.tombs
	if pending >= x.opts.overlayMin && pending*8 >= x.dead.len()+x.ov.points {
		x.foldBase()
	}
}

// foldBase packs every live point venue into fresh base tiles and
// rebuilds the overlay from the extent venues alone. The old base, dead
// column and overlay are left as they were, so published snapshots
// sharing them are unaffected.
func (x *Index) foldBase() {
	var pts []tiles.Point
	var extents []ovEntry
	for v := int32(0); int(v) < x.n; v++ {
		x.basePos[v] = -1
		if !x.spatial.at(v) {
			continue
		}
		if g := x.geo[v]; isPoint(g) {
			pts = append(pts, tiles.Point{X: g.Min.X, Y: g.Min.Y, Post: x.post.at(x.comp.at(v)), ID: v})
		} else {
			extents = x.entries(extents, v)
		}
	}
	x.base = tiles.New(pts)
	for k, id := range x.base.Columns().ID {
		x.basePos[id] = int32(k)
	}
	x.dead = pagedFrom(make([]bool, len(pts)))
	x.tombs = 0
	slices.SortFunc(extents, compareEntries)
	x.ov = (&overlay{}).update(&x.marks, extents, x.grid)
	x.patched = x.patched[:0]
	x.stats.Folds++
}

// occGrid is a coarse fixed-resolution occupancy grid over the venue
// space — the GeoReach idea reduced to its cheapest useful form. Each
// cell counts the venues whose geometry intersects it; a query region
// covering only empty cells cannot contain a venue, so the engine can
// answer false without touching labels or tiles. The same cells bucket
// the overlay. Venues outside the initial space clamp to the border
// cells, which keeps the filter conservative on both sides: such a
// venue inflates border counts, and a query reaching past the border
// clamps onto those same cells.
type occGrid struct {
	u      grid.Uniform
	nx, ny int
	cells  []int32
	total  int
}

func newOccGrid(space geom.Rect) *occGrid {
	return &occGrid{
		u:     grid.NewUniform(space),
		nx:    grid.Side,
		ny:    grid.Side,
		cells: make([]int32, grid.Side*grid.Side),
	}
}

// cellRange returns the clamped cell-index range covered by r, by the
// mapping the shard map's cells use (grid.Uniform).
func (g *occGrid) cellRange(r geom.Rect) (x0, y0, x1, y1 int) { return g.u.Range(r) }

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

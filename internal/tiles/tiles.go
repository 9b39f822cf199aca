// Package tiles is 3DReach's spatial index: STR tiles in the plane,
// with each tile's entries sorted by post-order number. The paper
// (§4.2) answers a label L(v) with one cuboid query per interval on a 3D
// R-tree of (x, y, post) objects, and notes (§7.2) that any structure
// indexing that space will do. This one partitions the plane the way
// GeoReach does and keeps the third axis inside the cells, so a query
// prunes by region first and merge-joins each cell's posts with the
// label after: a one-interval label (a giant component's) costs a
// bounds check or two binary searches per cell, a fragmented one a
// merge join, and an empty region never expands the post axis.
//
// An entry is a rectangle, a venue's geometry (paper footnote 1); a
// point is a rectangle whose corners are equal. Layout (Sort-Tile-
// Recursive in 2D, by min corner): the entries are sorted by min x and
// cut into ⌈√(P/CellSize)⌉ slabs of equal count; each slab is sorted by
// min y and cut into cells of CellSize entries; each cell's entries are
// sorted by post. The result is eight flat columns (see Columns), the
// form the flat index format persists and a mapped index overlays.
//
// 3DReach-Rev's vertical segments sit in the same tiles: a segment is an
// entry keyed by its low end, and its high end is the filter Any takes.
package tiles

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/trace"
)

// CellSize is the number of entries in a full cell.
const CellSize = 32

// Entry is one indexed spatial vertex: its geometry, a point when
// Box.Min equals Box.Max; its component's key on the label axis — the
// post-order number, or the spatial rank of a rank-keyed labeling; the
// tiles only need the labels to agree — and its vertex id.
type Entry struct {
	Box      geom.Rect
	Post, ID int32
}

// Columns are the tiles' arrays. With S slabs, C cells and P entries:
//
//	SlabX      [2S] f64 — per slab {min x, running max x}
//	SlabCells  [S+1] u32 — cell offsets: slab s holds cells SlabCells[s]..SlabCells[s+1]-1
//	CellMBR    [4C] f64 — per cell {min x, min y, max x, running max y}
//	CellPoints [C+1] u32 — entry offsets, as SlabCells
//	X, Y       [P] or [2P] f64 — entry min corners, then, when some
//	           entry is not a point, entry max corners
//	Post, ID   [P] i32 — post-order number and vertex id
//
// Entry k's max corner is at k+len(X)-len(Post): at k itself for a
// point set, whose columns carry no max corners. A slab's max x is the
// largest max x of its entries and every slab before it, and a cell's
// max y the largest of its entries and every cell before it in the
// slab, so both rise along the walk Any binary-searches; over a point
// set each is just the slab's or the cell's largest coordinate.
type Columns struct {
	SlabX      []float64
	SlabCells  []uint32
	CellMBR    []float64
	CellPoints []uint32
	X, Y       []float64
	Post, ID   []int32
}

// Tiles is the built or loaded index. It is immutable, so any number of
// readers may share it.
type Tiles struct {
	c Columns
}

// New builds the tiles over es. Every comparison ends in the vertex id,
// so equal entry sets give byte-identical columns whatever their input
// order; ids must be distinct and not negative.
//
// No order is sorted by comparison closures: the x order and each
// slab's y order are radix sorts by orderKey, whose runs of equal keys
// the whole comparison then finishes, and each cell is an insertion
// sort of postID values.
func New(es []Entry) *Tiles {
	n := len(es)
	keys := make([]key, n)
	for i, e := range es {
		keys[i] = key{e.Box.Min.X, e.Box.Min.Y, e.Post, e.ID}
	}
	var pos []int32 // pos[id] indexes es, when some entry is an extent
	if slices.ContainsFunc(es, func(e Entry) bool { return e.Box.Min != e.Box.Max }) {
		pos = make([]int32, slices.MaxFunc(es, func(a, b Entry) int { return cmp.Compare(a.ID, b.ID) }).ID+1)
		for i, e := range es {
			pos[e.ID] = int32(i)
		}
	}
	maxOf := func(k key) geom.Point {
		if pos == nil {
			return geom.Pt(k.x, k.y)
		}
		return es[pos[k.id]].Box.Max
	}
	cells := (n + CellSize - 1) / CellSize
	corners := n
	if pos != nil {
		corners = 2 * n
	}
	c := Columns{
		SlabCells:  []uint32{0},
		CellMBR:    make([]float64, 0, 4*cells),
		CellPoints: make([]uint32, 1, cells+1),
		X:          make([]float64, n, corners),
		Y:          make([]float64, n, corners),
		Post:       make([]int32, 0, n),
		ID:         make([]int32, 0, n),
	}
	if n == 0 {
		return &Tiles{c}
	}
	maxX, maxY := c.X[n:corners], c.Y[n:corners]
	s := &sorter{ord: make([]keyed, n), tmp: make([]keyed, n), buf: make([]key, n)}
	s.sort(keys, func(k key) float64 { return k.x }, byX)
	slabs := int(math.Ceil(math.Sqrt(float64(n) / CellSize)))
	per := (n + slabs - 1) / slabs
	slabMaxX := math.Inf(-1)
	for lo := 0; lo < n; lo += per {
		slab := keys[lo:min(lo+per, n)]
		for _, k := range slab {
			slabMaxX = runningMax(slabMaxX, maxOf(k).X)
		}
		c.SlabX = append(c.SlabX, slab[0].x, slabMaxX)
		s.sort(slab, func(k key) float64 { return k.y }, byY)
		cellMaxY := math.Inf(-1)
		for at := 0; at < len(slab); at += CellSize {
			cell := slab[at:min(at+CellSize, len(slab))]
			x0, x1 := cell[0].x, maxOf(cell[0]).X
			for _, k := range cell {
				m := maxOf(k)
				x0, x1 = min(x0, k.x), max(x1, m.X)
				cellMaxY = runningMax(cellMaxY, m.Y)
			}
			c.CellMBR = append(c.CellMBR, x0, cell[0].y, x1, cellMaxY)
			sortCell(cell)
			for _, k := range cell {
				i := len(c.Post)
				c.X[i], c.Y[i] = k.x, k.y
				if len(maxX) > 0 {
					m := maxOf(k)
					maxX[i], maxY[i] = m.X, m.Y
				}
				c.Post, c.ID = append(c.Post, k.post), append(c.ID, k.id)
			}
			c.CellPoints = append(c.CellPoints, uint32(len(c.Post)))
		}
		c.SlabCells = append(c.SlabCells, uint32(len(c.CellPoints)-1))
	}
	c.X, c.Y = c.X[:corners], c.Y[:corners]
	return &Tiles{c}
}

// key is what New's sorts move: a min corner, post and id, 24 bytes,
// not an Entry's 40; an extent's max corner is looked up by id when it
// is written.
type key struct {
	x, y     float64
	post, id int32
}

// byX and byY are the whole comparisons of the x and y orders: the
// coordinate, as cmp.Compare orders it (NaN first, −0 equal to +0), then
// the other coordinate, the post and the id.
func byX(a, b key) int {
	return cmp.Or(cmp.Compare(a.x, b.x), cmp.Compare(a.y, b.y), cmp.Compare(a.post, b.post), cmp.Compare(a.id, b.id))
}

func byY(a, b key) int {
	return cmp.Or(cmp.Compare(a.y, b.y), cmp.Compare(a.x, b.x), cmp.Compare(a.post, b.post), cmp.Compare(a.id, b.id))
}

// orderKey maps a coordinate to a uint64 in cmp.Compare's order: every
// NaN to 0, below −Inf's key, and −0 to +0's key, so that two keys are
// equal exactly when cmp.Compare calls the coordinates equal.
func orderKey(f float64) uint64 {
	switch {
	case f != f:
		return 0
	case f == 0:
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// postID packs a key's post and id into a uint64 whose order is the
// pair's.
func postID(k key) uint64 {
	return uint64(uint32(k.post)^1<<31)<<32 | uint64(uint32(k.id)^1<<31)
}

// sortCell orders a cell's keys by post, then id: an insertion sort
// over their postID values, at most CellSize of them.
func sortCell(cell []key) {
	var pk [CellSize]uint64
	for i, k := range cell {
		pk[i] = postID(k)
	}
	for i := 1; i < len(cell); i++ {
		p, k := pk[i], cell[i]
		j := i
		for ; j > 0 && pk[j-1] > p; j-- {
			pk[j], cell[j] = pk[j-1], cell[j-1]
		}
		pk[j], cell[j] = p, k
	}
}

// keyed is one element of a radix sort: a key and the position in the
// input of what it orders.
type keyed struct {
	key uint64
	at  int32
}

// sorter is the scratch of New's radix sorts, sized for the x order and
// reused by every slab's y order.
type sorter struct {
	ord, tmp []keyed
	buf      []key
}

// sort orders ks by full, given coord, the coordinate full compares
// first: a radix sort of (orderKey(coord), position) pairs places the
// keys, and full then sorts each run of equal orderKeys, which the
// radix sort leaves in input order.
func (s *sorter) sort(ks []key, coord func(key) float64, full func(a, b key) int) {
	ord, tmp := s.ord[:len(ks)], s.tmp[:len(ks)]
	for i, k := range ks {
		ord[i] = keyed{orderKey(coord(k)), int32(i)}
	}
	ord = radixSort(ord, tmp)
	buf := s.buf[:len(ks)]
	for j, o := range ord {
		buf[j] = ks[o.at]
	}
	copy(ks, buf)
	for lo := 0; lo < len(ord); {
		hi := lo + 1
		for hi < len(ord) && ord[hi].key == ord[lo].key {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(ks[lo:hi], full)
		}
		lo = hi
	}
}

// radixSort sorts a by key, stably, with tmp, as long as a, for
// scratch: one counting pass per byte of the key, least significant
// first, skipping a byte that every key shares. It returns whichever of
// the two slices holds the result.
func radixSort(a, tmp []keyed) []keyed {
	var count [8][256]int32
	for _, e := range a {
		for d := range count {
			count[d][byte(e.key>>(8*d))]++
		}
	}
	for d := range count {
		c := &count[d]
		if int(c[byte(a[0].key>>(8*d))]) == len(a) {
			continue
		}
		sum := int32(0)
		for b, k := range c {
			c[b], sum = sum, sum+k
		}
		for _, e := range a {
			b := byte(e.key >> (8 * d))
			tmp[c[b]] = e
			c[b]++
		}
		a, tmp = tmp, a
	}
	return a
}

// runningMax is max(m, v) that, on a tie, keeps v: over coordinates
// sorted ascending it ends at the last one, as the bound of a point set
// always has.
func runningMax(m, v float64) float64 {
	if v >= m {
		return v
	}
	return m
}

// FromColumns assembles tiles from persisted columns. It checks, in one
// pass and without allocating, everything a query's indexing relies on:
// the column lengths agree — x and y hold one corner per entry or two —
// both offset columns start at 0, rise strictly (no empty slab or cell)
// and end at the next level's length, and every id lies in [0, numIDs).
// Geometry and post order, which only decide answers, are left to
// Validate.
func FromColumns(c Columns, numIDs int) (*Tiles, error) {
	if len(c.SlabX)%2 != 0 || len(c.CellMBR)%4 != 0 {
		return nil, fmt.Errorf("tiles: %d slab bounds, %d cell bounds: not whole records", len(c.SlabX), len(c.CellMBR))
	}
	if err := checkOffsets("slab cell", c.SlabCells, len(c.SlabX)/2, len(c.CellMBR)/4); err != nil {
		return nil, err
	}
	n := len(c.Post)
	if err := checkOffsets("cell point", c.CellPoints, len(c.CellMBR)/4, n); err != nil {
		return nil, err
	}
	if len(c.ID) != n || len(c.Y) != len(c.X) || len(c.X) != n && len(c.X) != 2*n {
		return nil, fmt.Errorf("tiles: entry columns of %d x, %d y, %d post, %d id", len(c.X), len(c.Y), n, len(c.ID))
	}
	for k, id := range c.ID {
		if id < 0 || int(id) >= numIDs {
			return nil, fmt.Errorf("tiles: entry %d has id %d outside [0,%d)", k, id, numIDs)
		}
	}
	return &Tiles{c}, nil
}

// checkOffsets checks that off holds count+1 strictly rising offsets
// from 0 to total.
func checkOffsets(name string, off []uint32, count, total int) error {
	if len(off) != count+1 {
		return fmt.Errorf("tiles: %d %s offsets for %d runs", len(off), name, count)
	}
	if off[0] != 0 || int(off[count]) != total {
		return fmt.Errorf("tiles: %s offsets run from %d to %d, want 0 to %d", name, off[0], off[count], total)
	}
	for i := 1; i <= count; i++ {
		if off[i] <= off[i-1] {
			return fmt.Errorf("tiles: %s offset %d is %d, after %d", name, i, off[i], off[i-1])
		}
	}
	return nil
}

// Columns returns the tiles' arrays for persistence and validation. The
// slices alias the index and must not be mutated.
func (t *Tiles) Columns() Columns { return t.c }

// MemoryBytes returns the footprint of every column.
func (t *Tiles) MemoryBytes() int64 {
	c := &t.c
	return int64(8*(len(c.SlabX)+len(c.CellMBR)+len(c.X)+len(c.Y)) +
		4*(len(c.SlabCells)+len(c.CellPoints)+len(c.Post)+len(c.ID)))
}

// Any reports whether some entry meets r (boundary inclusive) with its
// post in label, which must be canonical (sorted, disjoint). Slabs are
// found by binary search on their running max x and walked until one
// starts past r; cells within a slab likewise on y. A cell r contains
// is decided by its posts alone; a boundary cell tests the rectangle of
// each entry whose post is in the label. Per traversal, sp counts a
// slab visited as a node, a cell whose bounds meet r as a leaf, and
// each entry tested against r as an entry.
//
// dead, when not nil, filters the entries by column position: an entry
// k with dead(k) counts as absent. A contained cell then answers with
// its first live candidate, and a boundary cell tests geometry before
// liveness. The dynamic index passes its tombstones here, 3DReach-Rev
// the segments whose high end lies below its plane; 3DReach passes nil
// and pays one nil check per candidate run.
func (t *Tiles) Any(r geom.Rect, label intervals.Set, dead func(k int) bool, sp *trace.Span) bool {
	c := &t.c
	nslabs := len(c.SlabCells) - 1
	i, j := 0, nslabs
	for i < j {
		if m := int(uint(i+j) >> 1); c.SlabX[2*m+1] < r.Min.X {
			i = m + 1
		} else {
			j = m
		}
	}
	for s := i; s < nslabs && c.SlabX[2*s] <= r.Max.X; s++ {
		sp.IncNode()
		a, end := int(c.SlabCells[s]), int(c.SlabCells[s+1])
		for b := end; a < b; {
			if m := int(uint(a+b) >> 1); c.CellMBR[4*m+3] < r.Min.Y {
				a = m + 1
			} else {
				b = m
			}
		}
		for cell := a; cell < end && c.CellMBR[4*cell+1] <= r.Max.Y; cell++ {
			box := c.CellMBR[4*cell : 4*cell+4 : 4*cell+4]
			if box[2] < r.Min.X || box[0] > r.Max.X {
				continue
			}
			sp.IncLeaf()
			inside := r.Min.X <= box[0] && box[2] <= r.Max.X && r.Min.Y <= box[1] && box[3] <= r.Max.Y
			if t.cellAny(int(c.CellPoints[cell]), int(c.CellPoints[cell+1]), r, label, inside, dead, sp) {
				return true
			}
		}
	}
	return false
}

// cellAny merge-joins the sorted posts of entries p0..p1-1 with the
// label: a monotone cursor on each side, each advanced by binary search,
// after a shortcut for a cell whose posts all fall in one interval (the
// giant component's label covers most cells so). When inside, the first
// live post in the label is the witness; otherwise each run of entries
// whose posts fall in one interval is tested against r (anyMeets, or
// testLive under a filter).
func (t *Tiles) cellAny(p0, p1 int, r geom.Rect, label intervals.Set, inside bool, dead func(int) bool, sp *trace.Span) bool {
	c := &t.c
	posts := c.Post[p0:p1]
	j := label.FirstEndingAt(posts[0])
	if j == len(label) {
		return false
	}
	whole := label[j].Lo <= posts[0] && posts[len(posts)-1] <= label[j].Hi
	total := 0
	for k, end := 0, len(posts); ; {
		if !whole {
			iv := label[j]
			k += lowerBound(posts[k:], iv.Lo)
			end = k + upperBound(posts[k:], iv.Hi)
		}
		if k < end {
			var tested int
			var hit bool
			if dead == nil && inside {
				return true
			}
			// The run's min corners, and its max corners: the same
			// columns over a point set.
			a, b := p0+k, p0+end
			x0, y0, x1, y1 := c.X[a:b], c.Y[a:b], c.X[a:b], c.Y[a:b]
			if off := len(c.X) - len(c.Post); off != 0 {
				x1, y1 = c.X[off+a:off+b], c.Y[off+a:off+b]
			}
			if dead == nil {
				tested, hit = anyMeets(x0, y0, x1, y1, r)
			} else {
				tested, hit = testLive(x0, y0, x1, y1, a, r, inside, dead)
			}
			if total += tested; hit {
				sp.AddEntries(total)
				return true
			}
		}
		if whole || end == len(posts) {
			break
		}
		k = end
		if j += 1 + label[j+1:].FirstEndingAt(posts[k]); j == len(label) {
			break
		}
	}
	sp.AddEntries(total)
	return false
}

// testLive is anyMeets under a filter, for the entries at column
// positions p0, p0+1, ..., whose posts are all in the label: the first
// live entry of a contained cell's run is the witness, untested; a
// boundary cell's entry must meet r and be live.
func testLive(x0, y0, x1, y1 []float64, p0 int, r geom.Rect, inside bool, dead func(int) bool) (tested int, hit bool) {
	if inside {
		for i := range x0 {
			if !dead(p0 + i) {
				return 0, true
			}
		}
		return 0, false
	}
	n := len(x0)
	y0, x1, y1 = y0[:n], x1[:n], y1[:n]
	for i, x := range x0 {
		if x <= r.Max.X && r.Min.X <= x1[i] && y0[i] <= r.Max.Y && r.Min.Y <= y1[i] && !dead(p0+i) {
			return i + 1, true
		}
	}
	return n, false
}

// anyMeets reports whether some entry [x0[i], x1[i]] × [y0[i], y1[i]]
// meets r, and how many entries it tested to find out. It tests eight
// at a time without branching on the outcome: in a cell r cuts through,
// which entries meet it follows no pattern a branch predictor could
// learn.
func anyMeets(x0, y0, x1, y1 []float64, r geom.Rect) (tested int, hit bool) {
	n := len(x0)
	y0, x1, y1 = y0[:n], x1[:n], y1[:n]
	var in uint8
	for i, x := range x0 {
		in |= b2u(x <= r.Max.X) & b2u(r.Min.X <= x1[i]) & b2u(y0[i] <= r.Max.Y) & b2u(r.Min.Y <= y1[i])
		if i&7 == 7 && in != 0 {
			return i + 1, true
		}
	}
	return n, in != 0
}

// b2u converts without a branch: the compiler turns the pattern into a
// flag-to-register move.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// lowerBound returns the first index of the sorted posts holding p or
// more.
func lowerBound(posts []int32, p int32) int {
	i, j := 0, len(posts)
	for i < j {
		if m := int(uint(i+j) >> 1); posts[m] < p {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// upperBound returns the first index of the sorted posts holding more
// than p.
func upperBound(posts []int32, p int32) int {
	i, j := 0, len(posts)
	for i < j {
		if m := int(uint(i+j) >> 1); posts[m] <= p {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// Validate checks what FromColumns leaves out, over every slab and
// cell: each slab's x range and each cell's bounds are non-empty; slab
// minima and running maxima never fall along x, nor cell minima and
// running maxima along y within a slab, and over a point set one's
// range ends where or before the next begins; a slab's x range contains
// its cells'; a cell holds at most CellSize entries, each a rectangle
// inside the cell's bounds, sorted by post. Those are the invariants the
// binary searches, the early stops and the contained-cell shortcut of
// Any rely on.
func (t *Tiles) Validate() error {
	c := &t.c
	if _, err := FromColumns(*c, math.MaxInt32); err != nil {
		return err
	}
	points := len(c.X) == len(c.Post)
	rising := func(what string, i int, prevMin, prevMax, minV, maxV float64) error {
		if points && !(prevMax <= minV) {
			return fmt.Errorf("tiles: %s %d starts at %g, before %s %d ends at %g", what, i, minV, what, i-1, prevMax)
		}
		if !(prevMin <= minV && prevMax <= maxV) {
			return fmt.Errorf("tiles: %s %d spans %g..%g, after %s %d's %g..%g", what, i, minV, maxV, what, i-1, prevMin, prevMax)
		}
		return nil
	}
	off := len(c.X) - len(c.Post)
	for s := 0; s+1 < len(c.SlabCells); s++ {
		minX, maxX := c.SlabX[2*s], c.SlabX[2*s+1]
		if !(minX <= maxX) {
			return fmt.Errorf("tiles: slab %d spans x %g..%g", s, minX, maxX)
		}
		if s > 0 {
			if err := rising("slab", s, c.SlabX[2*s-2], c.SlabX[2*s-1], minX, maxX); err != nil {
				return err
			}
		}
		for cell := int(c.SlabCells[s]); cell < int(c.SlabCells[s+1]); cell++ {
			box := c.CellMBR[4*cell : 4*cell+4]
			if !(box[0] <= box[2] && box[1] <= box[3]) {
				return fmt.Errorf("tiles: cell %d has bounds %v", cell, box)
			}
			if !(minX <= box[0] && box[2] <= maxX) {
				return fmt.Errorf("tiles: cell %d spans x %g..%g outside its slab %d's %g..%g", cell, box[0], box[2], s, minX, maxX)
			}
			if cell > int(c.SlabCells[s]) {
				if err := rising("cell", cell, c.CellMBR[4*cell-3], c.CellMBR[4*cell-1], box[1], box[3]); err != nil {
					return err
				}
			}
			p0, p1 := int(c.CellPoints[cell]), int(c.CellPoints[cell+1])
			if p1-p0 > CellSize {
				return fmt.Errorf("tiles: cell %d holds %d entries, more than %d", cell, p1-p0, CellSize)
			}
			for k := p0; k < p1; k++ {
				e := geom.Rect{Min: geom.Pt(c.X[k], c.Y[k]), Max: geom.Pt(c.X[off+k], c.Y[off+k])}
				if !(box[0] <= e.Min.X && e.Min.X <= e.Max.X && e.Max.X <= box[2] && box[1] <= e.Min.Y && e.Min.Y <= e.Max.Y && e.Max.Y <= box[3]) {
					return fmt.Errorf("tiles: entry %d (id %d) spans %v, outside cell %d's bounds %v", k, c.ID[k], e, cell, box)
				}
				if k > p0 && c.Post[k] < c.Post[k-1] {
					return fmt.Errorf("tiles: cell %d's posts are out of order at entry %d: %d after %d", cell, k, c.Post[k], c.Post[k-1])
				}
			}
		}
	}
	return nil
}

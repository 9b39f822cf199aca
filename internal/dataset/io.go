package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/graph"
)

// The text format for geosocial networks:
//
//	geosocial 1
//	name <label>
//	vertices <n>
//	checkins <count>
//	p <id> <x> <y>                     one line per point vertex
//	g <id> <xmin> <ymin> <xmax> <ymax> spatial vertex with a rectangular
//	                                   extent (paper footnote 1)
//	e <src> <dst>                      one line per directed edge
//
// Lines starting with '#' and blank lines are ignored. The header line
// must come first; `vertices` must precede any p/g/e line.

// Save writes n in the text format. Numbers are formatted with strconv
// straight into the writer's buffer: coordinates as %g spells them (the
// shortest text that reads back to the same float64), and each edge row
// repeats its `e <u> ` prefix from one copy.
func Save(w io.Writer, n *Network) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	fmt.Fprintln(bw, "geosocial 1")
	if n.Name != "" {
		fmt.Fprintf(bw, "name %s\n", n.Name)
	}
	fmt.Fprintf(bw, "vertices %d\n", n.NumVertices())
	fmt.Fprintf(bw, "checkins %d\n", n.Checkins)
	for v, s := range n.Spatial {
		if !s {
			continue
		}
		line := bw.AvailableBuffer()
		if n.Extents != nil && n.Extents[v] != (geom.Rect{}) {
			r := n.Extents[v]
			line = appendVertex(line, 'g', v, r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
		} else {
			line = appendVertex(line, 'p', v, n.Points[v].X, n.Points[v].Y)
		}
		bw.Write(line)
	}
	var prefix []byte
	for u := 0; u < n.NumVertices(); u++ {
		out := n.Graph.Out(u)
		if len(out) == 0 {
			continue
		}
		prefix = strconv.AppendInt(append(prefix[:0], 'e', ' '), int64(u), 10)
		prefix = append(prefix, ' ')
		for _, v := range out {
			line := append(bw.AvailableBuffer(), prefix...)
			line = strconv.AppendInt(line, int64(v), 10)
			if _, err := bw.Write(append(line, '\n')); err != nil {
				return fmt.Errorf("dataset: writing edges: %w", err)
			}
		}
	}
	return bw.Flush()
}

// appendVertex appends the line `<kind> <v> <c...>` with every
// coordinate spelled as fmt's %g spells it.
func appendVertex(line []byte, kind byte, v int, coords ...float64) []byte {
	line = strconv.AppendInt(append(line, kind, ' '), int64(v), 10)
	for _, c := range coords {
		line = strconv.AppendFloat(append(line, ' '), c, 'g', -1, 64)
	}
	return append(line, '\n')
}

// SaveFile writes n to the named file.
func SaveFile(path string, n *Network) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if err := Save(f, n); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Load reads a network in the text format.
func Load(r io.Reader) (*Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)

	line := 0
	// next returns the next directive line, trimmed; it aliases the
	// scanner's buffer and is valid until the following call.
	next := func() ([]byte, bool) {
		for sc.Scan() {
			line++
			s := bytes.TrimSpace(sc.Bytes())
			if len(s) == 0 || s[0] == '#' {
				continue
			}
			return s, true
		}
		return nil, false
	}

	header, ok := next()
	if !ok {
		return nil, fmt.Errorf("dataset: empty input")
	}
	if string(header) != "geosocial 1" {
		return nil, fmt.Errorf("dataset: line %d: unsupported header %q", line, header)
	}

	net := &Network{}
	var b *graph.Builder
	for {
		s, ok := next()
		if !ok {
			break
		}
		// Edge and point lines are most of the file. One written the way
		// Save writes it is read in place; any other spelling, and every
		// faulty line, takes the general path below, which owns the
		// accept/reject rules and the error texts.
		if b != nil {
			if src, dst, ok := parseEdgeLine(s, b.NumVertices()); ok {
				b.AddEdge(src, dst)
				continue
			}
			if id, pt, ok := parsePointLine(s, b.NumVertices()); ok {
				net.setPoint(id, pt)
				continue
			}
		}
		fields := strings.Fields(string(s))
		switch fields[0] {
		case "name":
			if len(fields) < 2 {
				return nil, fmt.Errorf("dataset: line %d: name needs a value", line)
			}
			net.Name = strings.Join(fields[1:], " ")
		case "vertices":
			n, err := atoiField(fields, 1, line)
			if err != nil {
				return nil, err
			}
			if b != nil {
				return nil, fmt.Errorf("dataset: line %d: vertices given twice", line)
			}
			if n < 0 {
				return nil, fmt.Errorf("dataset: line %d: negative vertex count", line)
			}
			// Vertex ids are int32 and the graph's offset column holds n+1.
			if n > math.MaxInt32-1 {
				return nil, fmt.Errorf("dataset: line %d: vertex count %d exceeds %d", line, n, math.MaxInt32-1)
			}
			b = graph.NewBuilder(n)
			net.Spatial = make([]bool, n)
			net.Points = make([]geom.Point, n)
		case "checkins":
			n, err := atoiField(fields, 1, line)
			if err != nil {
				return nil, err
			}
			net.Checkins = n
		case "p":
			if b == nil {
				return nil, fmt.Errorf("dataset: line %d: p before vertices", line)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("dataset: line %d: want `p id x y`", line)
			}
			id, err := atoiField(fields, 1, line)
			if err != nil {
				return nil, err
			}
			if id < 0 || id >= b.NumVertices() {
				return nil, fmt.Errorf("dataset: line %d: vertex %d out of range", line, id)
			}
			x, err1 := strconv.ParseFloat(fields[2], 64)
			y, err2 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("dataset: line %d: bad coordinates", line)
			}
			if !geom.RectFromPoint(geom.Pt(x, y)).Finite() {
				return nil, fmt.Errorf("dataset: line %d: coordinates (%v, %v) are not finite", line, x, y)
			}
			net.setPoint(id, geom.Pt(x, y))
		case "g":
			if b == nil {
				return nil, fmt.Errorf("dataset: line %d: g before vertices", line)
			}
			if len(fields) != 6 {
				return nil, fmt.Errorf("dataset: line %d: want `g id xmin ymin xmax ymax`", line)
			}
			id, err := atoiField(fields, 1, line)
			if err != nil {
				return nil, err
			}
			if id < 0 || id >= b.NumVertices() {
				return nil, fmt.Errorf("dataset: line %d: vertex %d out of range", line, id)
			}
			var c [4]float64
			for i := 0; i < 4; i++ {
				c[i], err = strconv.ParseFloat(fields[2+i], 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: line %d: bad coordinates", line)
				}
			}
			r := geom.NewRect(c[0], c[1], c[2], c[3])
			if !r.Finite() {
				return nil, fmt.Errorf("dataset: line %d: coordinates %v are not finite", line, c)
			}
			if net.Extents == nil {
				net.Extents = make([]geom.Rect, b.NumVertices())
			}
			net.Spatial[id] = true
			net.Points[id] = r.Center()
			net.Extents[id] = r
		case "e":
			if b == nil {
				return nil, fmt.Errorf("dataset: line %d: e before vertices", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("dataset: line %d: want `e src dst`", line)
			}
			src, err := atoiField(fields, 1, line)
			if err != nil {
				return nil, err
			}
			dst, err := atoiField(fields, 2, line)
			if err != nil {
				return nil, err
			}
			if src < 0 || src >= b.NumVertices() || dst < 0 || dst >= b.NumVertices() {
				return nil, fmt.Errorf("dataset: line %d: edge (%d,%d) out of range", line, src, dst)
			}
			b.AddEdge(src, dst)
		default:
			return nil, fmt.Errorf("dataset: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("dataset: missing vertices directive")
	}
	net.Graph = b.Build()
	return net, nil
}

// LoadFile reads the named file.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// parseEdgeLine reads `e <src> <dst>` in Save's spelling: single spaces,
// plain decimal digits, both ids inside [0, n). It reports !ok for
// anything else, valid or not.
func parseEdgeLine(line []byte, n int) (src, dst int, ok bool) {
	if len(line) < 2 || line[0] != 'e' || line[1] != ' ' {
		return 0, 0, false
	}
	src, i := parseID(line, 2, n)
	if i < 0 || i == len(line) || line[i] != ' ' {
		return 0, 0, false
	}
	dst, i = parseID(line, i+1, n)
	return src, dst, i == len(line)
}

// setPoint makes id a point vertex at pt. A later line for a vertex
// replaces an earlier one, so a point drops an extent given before it.
func (n *Network) setPoint(id int, pt geom.Point) {
	n.Spatial[id] = true
	n.Points[id] = pt
	if n.Extents != nil {
		n.Extents[id] = geom.Rect{}
	}
}

// parsePointLine reads `p <id> <x> <y>` in Save's spelling: single
// spaces, the id in plain decimal digits inside [0, n), and finite
// coordinates. It reports !ok for anything else, valid or not.
func parsePointLine(line []byte, n int) (id int, pt geom.Point, ok bool) {
	if len(line) < 2 || line[0] != 'p' || line[1] != ' ' {
		return 0, pt, false
	}
	id, i := parseID(line, 2, n)
	if i < 0 || i == len(line) || line[i] != ' ' {
		return 0, pt, false
	}
	xs, ys, found := bytes.Cut(line[i+1:], []byte{' '})
	if !found {
		return 0, pt, false
	}
	x, err1 := strconv.ParseFloat(string(xs), 64)
	y, err2 := strconv.ParseFloat(string(ys), 64)
	pt = geom.Pt(x, y)
	return id, pt, err1 == nil && err2 == nil && geom.RectFromPoint(pt).Finite()
}

// parseID reads the decimal digits at line[i:] and returns their value
// and the index past them, or -1 when there is no digit or the value is
// not below n.
func parseID(line []byte, i, n int) (int, int) {
	v, start := 0, i
	for ; i < len(line) && '0' <= line[i] && line[i] <= '9'; i++ {
		if v = v*10 + int(line[i]-'0'); v >= n {
			return 0, -1
		}
	}
	if i == start {
		return 0, -1
	}
	return v, i
}

func atoiField(fields []string, i, line int) (int, error) {
	if i >= len(fields) {
		return 0, fmt.Errorf("dataset: line %d: missing field %d", line, i)
	}
	n, err := strconv.Atoi(fields[i])
	if err != nil {
		return 0, fmt.Errorf("dataset: line %d: %q is not an integer", line, fields[i])
	}
	return n, nil
}

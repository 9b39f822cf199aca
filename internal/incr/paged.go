package incr

import "slices"

// The columns a snapshot captures — comp, labels, post, spatial — are
// cut into fixed-size pages so that publishing costs what the epoch
// wrote, not what the index holds. A snapshot keeps a column's page
// table by header; the writer, before its first write to a page a
// snapshot may see, replaces the page with a private copy (and, once
// per epoch, the table with one). Appends need no copy: they fill slots
// past every frozen length, which no snapshot reads.
const (
	pageBits = 8
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// column is the read side of a paged column: what a snapshot holds, and
// what the live index hands to qview for the length of one query.
type column[T any] struct {
	pages []*[pageSize]T
	n     int
}

func (c column[T]) at(i int32) T { return c.pages[i>>pageBits][i&pageMask] }

func (c column[T]) len() int { return c.n }

// flat copies the column into one slice, for the O(n) consumers
// (validation, rebuilds).
func (c column[T]) flat() []T {
	s := make([]T, 0, c.n)
	for k := 0; len(s) < c.n; k++ {
		s = append(s, c.pages[k][:min(pageSize, c.n-len(s))]...)
	}
	return s
}

// paged is the writer's side of a column.
type paged[T any] struct {
	column[T]
	own    []bool // own[k]: no snapshot can see page k's current array
	shared bool   // the page table is the one the last snapshot holds
}

// pagedFrom takes ownership of s: full pages alias it, the partial last
// page is copied out so that it has room to grow.
func pagedFrom[T any](s []T) paged[T] {
	np := (len(s) + pageMask) >> pageBits
	p := paged[T]{
		column: column[T]{pages: make([]*[pageSize]T, np), n: len(s)},
		own:    make([]bool, np),
	}
	for k := range p.pages {
		if rest := s[k<<pageBits:]; len(rest) >= pageSize {
			p.pages[k] = (*[pageSize]T)(rest)
		} else {
			p.pages[k] = new([pageSize]T)
			copy(p.pages[k][:], rest)
		}
		p.own[k] = true
	}
	return p
}

func (p *paged[T]) set(i int32, v T) {
	k := i >> pageBits
	if !p.own[k] {
		if p.shared {
			p.pages = slices.Clone(p.pages)
			p.shared = false
		}
		pg := *p.pages[k]
		p.pages[k] = &pg
		p.own[k] = true
	}
	p.pages[k][i&pageMask] = v
}

func (p *paged[T]) append(v T) {
	if p.n == len(p.pages)<<pageBits {
		// A shared table with spare capacity is extended in place: the
		// new entry lies past the length the snapshot's header reads.
		p.pages = append(p.pages, new([pageSize]T))
		p.own = append(p.own, true)
	}
	p.pages[p.n>>pageBits][p.n&pageMask] = v
	p.n++
}

// freeze returns the column as it stands, for a snapshot to keep.
// Every page becomes copy-on-write until the writer owns it again.
func (p *paged[T]) freeze() column[T] {
	clear(p.own)
	p.shared = true
	return column[T]{pages: p.pages[:len(p.pages):len(p.pages)], n: p.n}
}

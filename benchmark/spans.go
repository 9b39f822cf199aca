package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Spans of one
// query share Query; Parent names the enclosing depth's span.
type span struct {
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the end-to-end pass runs.
type tracer struct {
	t0   time.Time
	mu   sync.Mutex
	bufs []*spanBuf
}

// spanBuf is one goroutine's share of a tracer, appended to without a
// lock.
type spanBuf struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t0: t.t0}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (b *spanBuf) add(query int, name, parent string, start, end time.Time) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{Query: query, Name: name, Parent: parent,
		Start: int64(start.Sub(b.t0)), End: int64(end.Sub(b.t0))})
}

func (t *tracer) count() int {
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// write emits one JSON object per span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, b := range t.bufs {
		for i := range b.spans {
			if err := enc.Encode(&b.spans[i]); err != nil {
				_ = f.Close() // the write error is the one to report
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // as above
		return err
	}
	return f.Close()
}

// Package httpjson is the per-request body and reply plumbing rrserve
// and rrrouter share: a pooled scratch that a handler reads its JSON
// request into and appends its reply to, so neither tier builds a
// json.Decoder, a json.Encoder or their buffers per request.
package httpjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
)

// Scratch is one request's buffers. Get one per handler call and
// Release it when the handler returns; nothing read from it may be kept
// past Release.
type Scratch struct {
	body bytes.Buffer
	// Out is the reply under construction: append to Out[:0], store the
	// result back (so the grown capacity is kept) and send it with Reply.
	Out []byte
}

// maxPooled is the largest buffer a Scratch takes back to the pool; one
// 8 MiB batch must not pin 8 MiB per pooled scratch for good.
const maxPooled = 64 << 10

var pool = sync.Pool{New: func() any { return new(Scratch) }}

// Get returns an empty Scratch.
func Get() *Scratch { return pool.Get().(*Scratch) }

// Release returns s to the pool.
func (s *Scratch) Release() {
	if s.body.Cap() > maxPooled || cap(s.Out) > maxPooled {
		return
	}
	s.body.Reset()
	pool.Put(s)
}

// Decode reads r's whole body, refusing more than max bytes (max <= 0
// reads without a cap), and unmarshals it into v. A failure comes back
// as the status to answer with and the message: 413 for an oversized
// body, before any JSON work, and 400 for anything that is not exactly
// one JSON value of v's shape. Bytes after that value are a 400 too:
// what is forwarded to a shard is what was validated here.
func (s *Scratch) Decode(w http.ResponseWriter, r *http.Request, max int64, v any) (int, error) {
	body := r.Body
	if max > 0 {
		body = http.MaxBytesReader(w, body, max)
	}
	s.body.Reset()
	if _, err := s.body.ReadFrom(body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("bad request: %w", err)
	}
	if err := json.Unmarshal(s.body.Bytes(), v); err != nil {
		return http.StatusBadRequest, fmt.Errorf("bad request: %w", err)
	}
	return 0, nil
}

// Decode is Scratch.Decode for a handler that keeps neither the body
// bytes nor a reply buffer.
func Decode(w http.ResponseWriter, r *http.Request, max int64, v any) (int, error) {
	s := Get()
	defer s.Release()
	return s.Decode(w, r, max, v)
}

// Body returns the bytes the last Decode read, valid until Release.
func (s *Scratch) Body() []byte { return s.body.Bytes() }

// jsonType is shared by every reply; net/http only reads header values.
var jsonType = []string{"application/json"}

// Reply sends Out as the JSON response body.
func (s *Scratch) Reply(w http.ResponseWriter, status int) {
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(status)
	// A write error here means the client went away; the status line is
	// already committed, so there is nothing left to report.
	_, _ = w.Write(s.Out)
}

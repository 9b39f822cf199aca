package httpjson

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

type probe struct {
	N int `json:"n"`
}

// TestScratchReuse: a scratch that has held a long body and a long
// reply hands the next request exactly its own bytes.
func TestScratchReuse(t *testing.T) {
	s := Get()
	defer s.Release()
	var p probe
	long := `{"n":1,"pad":"` + strings.Repeat("x", 1000) + `"}`
	for _, body := range []string{long, `{"n":2}`} {
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
		if status, err := s.Decode(httptest.NewRecorder(), r, 4096, &p); err != nil {
			t.Fatalf("%d %v", status, err)
		}
		if string(s.Body()) != body {
			t.Fatalf("Body() = %q, want %q", s.Body(), body)
		}
		s.Out = append(s.Out[:0], body...)
		rec := httptest.NewRecorder()
		s.Reply(rec, http.StatusAccepted)
		if rec.Code != http.StatusAccepted || rec.Body.String() != body || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("Reply wrote %d %q %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
		}
	}
	if p.N != 2 {
		t.Fatalf("decoded n = %d, want 2", p.N)
	}
}

// TestDecodeStatuses: the cap is met before any JSON work, and only one
// JSON value is a request.
func TestDecodeStatuses(t *testing.T) {
	for _, tc := range []struct {
		body   string
		max    int64
		status int
	}{
		{`{"n":1}`, 16, 0},
		{`{"n":1}`, -1, 0},
		{`{"n":1} `, 7, http.StatusRequestEntityTooLarge},
		{`not json, and long`, 7, http.StatusRequestEntityTooLarge},
		{`{"n":1}{"n":2}`, 16, http.StatusBadRequest},
		{``, 16, http.StatusBadRequest},
	} {
		var p probe
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(tc.body))
		s := Get()
		status, err := s.Decode(httptest.NewRecorder(), r, tc.max, &p)
		s.Release()
		if status != tc.status || (err == nil) != (status == 0) {
			t.Errorf("%q under %d: got %d %v, want %d", tc.body, tc.max, status, err, tc.status)
		}
	}
}

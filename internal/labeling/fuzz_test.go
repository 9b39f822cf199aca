package labeling

import (
	"bytes"
	"testing"
)

// FuzzReadLabeling hardens the binary deserializer: arbitrary bytes must
// either be rejected or yield a labeling whose invariants hold (valid
// dense post numbers, in-range canonical-ish intervals).
func FuzzReadLabeling(f *testing.F) {
	// Seed with the frozen v1 streams — nothing writes the format any
	// more — and truncations thereof: a forward labeling and a reversed
	// one (the other fixtures repeat the forward stream).
	for _, slug := range []string{"3dreach", "3dreach-rev"} {
		valid := fixtureV1(f, slug)
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(valid[:9]) // header and count, no posts
	}
	f.Add([]byte("RRLB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadLabeling(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := l.NumVertices()
		for v := 0; v < n; v++ {
			p := l.Post[v]
			if p < 1 || p > int32(n) || int(l.Order[p-1]) != v {
				t.Fatal("accepted labeling with corrupt post numbering")
			}
			for _, iv := range l.Labels[v] {
				if iv.Lo < 1 || iv.Hi > int32(n) || iv.Lo > iv.Hi {
					t.Fatal("accepted labeling with out-of-range interval")
				}
			}
		}
	})
}

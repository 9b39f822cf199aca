package intervals

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCompressPaperExamples(t *testing.T) {
	// §3.1: [3,5] absorbs [4,5]; [1,4] and [4,5] merge to [1,5].
	tests := []struct {
		name string
		in   Set
		want Set
	}{
		{"absorb", Set{{3, 5}, {4, 5}}, Set{{3, 5}}},
		{"merge-overlap", Set{{1, 4}, {4, 5}}, Set{{1, 5}}},
		{"merge-adjacent-integers", Set{{1, 3}, {4, 5}}, Set{{1, 5}}},
		{"disjoint", Set{{1, 2}, {7, 9}}, Set{{1, 2}, {7, 9}}},
		{"unsorted", Set{{7, 9}, {1, 2}, {3, 3}}, Set{{1, 3}, {7, 9}}},
		{"duplicates", Set{{2, 2}, {2, 2}, {2, 2}}, Set{{2, 2}}},
		{"single", Set{{5, 5}}, Set{{5, 5}}},
		{"empty", nil, nil},
		{"table1-vertex-b", Set{{4, 4}, {2, 2}, {3, 3}, {1, 1}, {7, 7}, {5, 5}}, Set{{1, 5}, {7, 7}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in.Clone().Compress()
			if len(got) == 0 && len(tc.want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Compress(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

// coveredPosts returns the set of integers covered by s.
func coveredPosts(s Set) map[int32]bool {
	m := make(map[int32]bool)
	for _, iv := range s {
		for p := iv.Lo; p <= iv.Hi; p++ {
			m[p] = true
		}
	}
	return m
}

func TestCompressProperties(t *testing.T) {
	// A run ending at MaxInt32 absorbs what sorts after it: the
	// adjacency test must not wrap.
	edge := Set{{Lo: 7, Hi: 9}, {Lo: 5, Hi: math.MaxInt32}, {Lo: math.MaxInt32, Hi: math.MaxInt32}}
	if got, want := edge.Compress(), NewSet(5, math.MaxInt32); !got.Equal(want) || !got.IsCanonical() {
		t.Fatalf("Compress at MaxInt32 = %v, want %v", got, want)
	}
	if (Set{{Lo: 5, Hi: math.MaxInt32}, {Lo: 7, Hi: 9}}).IsCanonical() {
		t.Fatal("IsCanonical accepts an interval after a run ending at MaxInt32")
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		var s Set
		for i := 0; i < rng.Intn(20); i++ {
			lo := int32(1 + rng.Intn(60))
			hi := lo + int32(rng.Intn(8))
			s = s.Add(lo, hi)
		}
		before := coveredPosts(s)
		c := s.Clone().Compress()
		if !c.IsCanonical() {
			t.Fatalf("trial %d: Compress(%v) = %v not canonical", trial, s, c)
		}
		after := coveredPosts(c)
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("trial %d: coverage changed: %v -> %v", trial, s, c)
		}
		// Idempotent.
		again := c.Clone().Compress()
		if !c.Equal(again) {
			t.Fatalf("trial %d: Compress not idempotent: %v -> %v", trial, c, again)
		}
		// Contains agrees with coverage, canonical or not.
		for p := int32(0); p <= 70; p++ {
			if c.ContainsCanonical(p) != before[p] {
				t.Fatalf("trial %d: ContainsCanonical(%d) wrong on %v", trial, p, c)
			}
			if s.Contains(p) != before[p] {
				t.Fatalf("trial %d: Contains(%d) wrong on raw %v", trial, p, s)
			}
		}
	}
}

func TestMergeCanonical(t *testing.T) {
	f := func(rawA, rawB []uint16) bool {
		a := setFromRaw(rawA).Compress()
		b := setFromRaw(rawB).Compress()
		m := MergeCanonical(a, b)
		if !m.IsCanonical() {
			return false
		}
		want := coveredPosts(a)
		for p := range coveredPosts(b) {
			want[p] = true
		}
		return reflect.DeepEqual(coveredPosts(m), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMergeManyCanonical(t *testing.T) {
	f := func(raws [][]uint16) bool {
		sets := make([]Set, len(raws))
		want := map[int32]bool{}
		for i, raw := range raws {
			sets[i] = setFromRaw(raw).Compress()
			for p := range coveredPosts(sets[i]) {
				want[p] = true
			}
		}
		m := MergeManyCanonical(sets)
		if !m.IsCanonical() {
			return false
		}
		return reflect.DeepEqual(coveredPosts(m), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// setFromRaw builds intervals from pairs of raw fuzz values.
func setFromRaw(raw []uint16) Set {
	var s Set
	for i := 0; i+1 < len(raw); i += 2 {
		lo := int32(raw[i]%200) + 1
		hi := lo + int32(raw[i+1]%10)
		s = s.Add(lo, hi)
	}
	return s
}

func TestUnionSetSemantics(t *testing.T) {
	a := Set{{1, 1}, {2, 2}}
	b := Set{{2, 2}, {3, 3}}
	u := a.Union(b)
	if len(u) != 3 {
		t.Fatalf("Union dedup failed: %v", u)
	}
}

func TestCardinality(t *testing.T) {
	s := Set{{1, 5}, {7, 7}}
	if got := s.Cardinality(); got != 6 {
		t.Errorf("Cardinality = %d, want 6", got)
	}
	if got := Set(nil).Cardinality(); got != 0 {
		t.Errorf("empty Cardinality = %d", got)
	}
}

func TestSingletonAndString(t *testing.T) {
	s := Singleton(9)
	if !s.Contains(9) || s.Contains(8) {
		t.Error("Singleton containment wrong")
	}
	if got := s.String(); got != "{[9,9]}" {
		t.Errorf("String = %q", got)
	}
	if (Interval{3, 5}).String() != "[3,5]" {
		t.Error("Interval.String wrong")
	}
}

func TestIntervalOverlaps(t *testing.T) {
	tests := []struct {
		a, b Interval
		want bool
	}{
		{Interval{1, 3}, Interval{3, 5}, true},
		{Interval{1, 3}, Interval{4, 5}, false},
		{Interval{1, 9}, Interval{4, 5}, true},
	}
	for _, tc := range tests {
		if got := tc.a.Overlaps(tc.b); got != tc.want {
			t.Errorf("%v.Overlaps(%v) = %v", tc.a, tc.b, got)
		}
		if got := tc.b.Overlaps(tc.a); got != tc.want {
			t.Errorf("Overlaps not symmetric for %v, %v", tc.a, tc.b)
		}
	}
}

func TestMemoryBytes(t *testing.T) {
	s := Set{{1, 2}, {3, 4}, {9, 9}}
	if got := s.MemoryBytes(); got != 24 {
		t.Errorf("MemoryBytes = %d, want 24", got)
	}
}

func TestCoversCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 300; trial++ {
		a := setFromRawInts(rng, 15).Compress()
		b := setFromRawInts(rng, 8).Compress()
		got := a.CoversCanonical(b)
		want := true
		for p := int32(1); p <= 300; p++ {
			if b.ContainsCanonical(p) && !a.ContainsCanonical(p) {
				want = false
				break
			}
		}
		if got != want {
			t.Fatalf("trial %d: Covers(%v, %v) = %v, want %v", trial, a, b, got, want)
		}
	}
	if !(Set{}).CoversCanonical(Set{}) {
		t.Error("empty covers empty failed")
	}
	if (Set{}).CoversCanonical(Set{{1, 1}}) {
		t.Error("empty covers non-empty")
	}
}

func setFromRawInts(rng *rand.Rand, n int) Set {
	var s Set
	for i := 0; i < rng.Intn(n); i++ {
		lo := int32(1 + rng.Intn(250))
		s = s.Add(lo, lo+int32(rng.Intn(20)))
	}
	return s
}

// randomCanonical draws a canonical set inside [base, base+width]:
// sorted runs separated by gaps of at least one uncovered integer. At
// least one run in four is a singleton, like a giant component's
// successor labels; the rest are wider.
func randomCanonical(rng *rand.Rand, base int64, width int, maxIntervals int) Set {
	var s Set
	at := base + int64(rng.Intn(width/4+1))
	for len(s) < maxIntervals {
		hi := at + int64(rng.Intn(4)*rng.Intn(width/8+1))
		if hi > base+int64(width) {
			break
		}
		s = append(s, Interval{Lo: int32(at), Hi: int32(hi)})
		at = hi + 2 + int64(rng.Intn(width/16+1))
		if at > base+int64(width) {
			break
		}
	}
	return s
}

// TestMergeSweepEqualsSort pins MergeManyCanonical's two branches to
// each other, to Compress of the concatenated inputs (what the static
// label builder ran before it called the merge) and to a coverage
// bitmap, on windows placed at both ends
// of the int32 range as well as inside it, with empty sets mixed in.
func TestMergeSweepEqualsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const width = 1500
	bases := []int64{math.MinInt32, math.MaxInt32 - width, -width / 2, 1}
	for trial := 0; trial < 400; trial++ {
		base := bases[trial%len(bases)]
		sets := make([]Set, rng.Intn(14))
		covered := make([]bool, width+1)
		total := 0
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for i := range sets {
			switch rng.Intn(6) {
			case 0:
				continue // an empty input
			case 1:
				// A run ending at the window's top — MaxInt32 on the
				// second base — that subsumes what the other sets hold
				// up there.
				top := base + width
				sets[i] = Set{{Lo: int32(top - int64(rng.Intn(width/2))), Hi: int32(top)}}
			default:
				sets[i] = randomCanonical(rng, base, width, 1+rng.Intn(200))
			}
			total += len(sets[i])
			for _, iv := range sets[i] {
				lo, hi = min(lo, int64(iv.Lo)), max(hi, int64(iv.Hi))
				for p := int64(iv.Lo); p <= int64(iv.Hi); p++ {
					covered[p-base] = true
				}
			}
		}
		if total == 0 {
			if got := MergeManyCanonical(sets); len(got) != 0 {
				t.Fatalf("trial %d: merge of empty sets = %v", trial, got)
			}
			continue
		}
		var want Set
		for p := 0; p <= width; p++ {
			if !covered[p] {
				continue
			}
			q := p
			for q+1 <= width && covered[q+1] {
				q++
			}
			want = append(want, Interval{Lo: int32(base + int64(p)), Hi: int32(base + int64(q))})
			p = q
		}
		sweep := mergeSweep(sets, int32(lo), int(hi-lo+1))
		sorted := mergeSort(sets, total)
		if !sweep.Equal(want) || !sorted.Equal(want) {
			t.Fatalf("trial %d (base %d): sweep %v, sort %v, want %v", trial, base, sweep, sorted, want)
		}
		if got := MergeManyCanonical(sets); !got.Equal(want) {
			t.Fatalf("trial %d (base %d): MergeManyCanonical = %v, want %v", trial, base, got, want)
		}
		var concat Set
		for _, set := range sets {
			concat = append(concat, set...)
		}
		if got := concat.Compress(); !got.Equal(want) {
			t.Fatalf("trial %d (base %d): Compress of the concatenation = %v, want %v", trial, base, got, want)
		}
	}
}

// TestMergeManyCanonicalNeverAliases overwrites the result of every
// dispatch case — one set, two, sparse many, dense many — and checks
// the inputs did not move.
func TestMergeManyCanonicalNeverAliases(t *testing.T) {
	dense := make([]Set, 300)
	for i := range dense {
		dense[i] = Singleton(int32(2 * i))
	}
	for name, sets := range map[string][]Set{
		"one":    {{{1, 4}, {9, 9}}},
		"two":    {{{1, 4}}, nil},
		"sparse": {{{1, 4}}, {{1 << 20, 1 << 21}}, {{-5, -5}}},
		"dense":  dense,
	} {
		before := make([]Set, len(sets))
		for i, s := range sets {
			before[i] = s.Clone()
		}
		out := MergeManyCanonical(sets)
		out = out[:cap(out)] // spare capacity must be private too
		for i := range out {
			out[i] = Interval{Lo: -99, Hi: -99}
		}
		for i := range sets {
			if !sets[i].Equal(before[i]) {
				t.Errorf("%s: input %d changed to %v after writing to the result", name, i, sets[i])
			}
		}
	}
}

func TestOverlapsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		s := randomCanonical(rng, 1, 400, rng.Intn(40))
		lo := int32(rng.Intn(420)) - 10
		hi := lo + int32(rng.Intn(4)*rng.Intn(60))
		want := false
		for p := lo; p <= hi; p++ {
			want = want || s.ContainsCanonical(p)
		}
		if got := s.OverlapsCanonical(lo, hi); got != want {
			t.Fatalf("trial %d: %v.OverlapsCanonical(%d, %d) = %v, want %v", trial, s, lo, hi, got, want)
		}
	}
}

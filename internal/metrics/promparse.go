// Prometheus text-format parsing — the consumer side of the registry.
// The router tier digests its shards' /metrics into one cluster view
// (GET /v1/cluster) and rrtop turns scrapes into a dashboard; both need
// to read back exactly the exposition WritePrometheus renders, so the
// parser lives next to the writer and is tested as its round-trip
// inverse.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its label set
// and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns a label's value, "" when absent.
func (s Sample) Label(key string) string { return s.Labels[key] }

// ParseProm parses a Prometheus text-format exposition (version 0.0.4,
// the dialect WritePrometheus emits). Comment and blank lines are
// skipped; malformed sample lines fail the whole parse, since a
// truncated scrape must not masquerade as a small one.
func ParseProm(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: reading exposition: %w", err)
	}
	return out, nil
}

func parseSample(line string) (Sample, error) {
	// name{labels} value  |  name value
	var name, labels, rest string
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			return Sample{}, fmt.Errorf("unbalanced braces in %q", line)
		}
		name, labels, rest = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return Sample{}, fmt.Errorf("no value in %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	// A timestamp may trail the value; keep the first field only.
	if f := strings.Fields(rest); len(f) > 0 {
		rest = f[0]
	}
	if name == "" || rest == "" {
		return Sample{}, fmt.Errorf("malformed sample %q", line)
	}
	v, err := parseValue(rest)
	if err != nil {
		return Sample{}, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s := Sample{Name: name, Value: v}
	if labels != "" {
		s.Labels, err = parseLabels(labels)
		if err != nil {
			return Sample{}, fmt.Errorf("bad labels in %q: %v", line, err)
		}
	}
	return s, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func parseLabels(s string) (map[string]string, error) {
	out := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("no '=' in %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("unquoted value for %q", key)
		}
		val, rest, err := unquoteLabel(s)
		if err != nil {
			return nil, err
		}
		out[key] = val
		s = strings.TrimPrefix(strings.TrimSpace(rest), ",")
		s = strings.TrimSpace(s)
	}
	return out, nil
}

// unquoteLabel consumes a leading double-quoted string with \" \\ \n
// escapes and returns the value plus the remainder.
func unquoteLabel(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape in %q", s)
			}
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value in %q", s)
}

// Buckets is a cumulative le-bucket set, the parsed form of one
// histogram (or several merged ones). Keys are the `le` upper bounds
// with +Inf included; values are cumulative observation counts.
type Buckets map[float64]float64

// AddBucket accumulates one `_bucket` sample into the set; merging a
// second histogram into the same Buckets sums cumulative counts
// bound-for-bound, which is exact when the sources share a bucket
// layout (all registry histograms of one family do).
func (b Buckets) AddBucket(le string, cum float64) error {
	bound, err := parseValue(le)
	if err != nil {
		return fmt.Errorf("metrics: bad le %q: %v", le, err)
	}
	b[bound] += cum
	return nil
}

// Count returns the total observation count (the +Inf bucket).
func (b Buckets) Count() float64 { return b[math.Inf(1)] }

// Quantile estimates the q-quantile by linear interpolation within the
// holding bucket — the same estimate Histogram.Quantile computes over
// live buckets, now over scraped (and possibly merged) ones. Returns 0
// with no observations; the +Inf bucket clamps to the highest finite
// bound.
func (b Buckets) Quantile(q float64) float64 {
	bounds := make([]float64, 0, len(b))
	for bound := range b {
		if !math.IsInf(bound, 1) {
			bounds = append(bounds, bound)
		}
	}
	sort.Float64s(bounds)
	total := b.Count()
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * total
	var prevCum, prevBound float64
	for _, bound := range bounds {
		cum := b[bound]
		if cum >= rank && cum > prevCum {
			frac := (rank - prevCum) / (cum - prevCum)
			return prevBound + (bound-prevBound)*frac
		}
		prevCum, prevBound = cum, bound
	}
	return bounds[len(bounds)-1]
}

// HistogramBuckets extracts the named histogram's buckets from a
// parsed scrape, keeping only samples whose labels match the given
// filter (nil matches all). The `le` label itself is not part of the
// filter.
func HistogramBuckets(samples []Sample, name string, filter map[string]string) (Buckets, error) {
	b := make(Buckets)
	for _, s := range samples {
		if s.Name != name+"_bucket" || !labelsMatch(s.Labels, filter) {
			continue
		}
		if err := b.AddBucket(s.Label("le"), s.Value); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Value returns the first sample matching name and filter, with ok
// reporting whether one was found.
func Value(samples []Sample, name string, filter map[string]string) (float64, bool) {
	for _, s := range samples {
		if s.Name == name && labelsMatch(s.Labels, filter) {
			return s.Value, true
		}
	}
	return 0, false
}

func labelsMatch(labels, filter map[string]string) bool {
	for k, v := range filter {
		if labels[k] != v {
			return false
		}
	}
	return true
}

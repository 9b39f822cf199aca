package httpjson

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"
)

// The JSON bodies rrserve and rrrouter read and write, and that rrload,
// rrquery and rrtop decode. A body whose shape differs between the
// tiers is two types: Server* is rrserve's, Router* is rrrouter's. The
// router decodes its shards' replies with the Server* types.

// QueryRequest is one RangeReach query: a vertex and a region given as
// [xmin, ymin, xmax, ymax] (corners in any order).
type QueryRequest struct {
	Vertex int        `json:"vertex"`
	Region [4]float64 `json:"region"`
}

// MaxBatch caps the queries of one batch request on both tiers. It is
// one constant so that no batch the router accepts can be refused by
// the shard it forwards that batch to.
const MaxBatch = 8192

type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// Check refuses a batch of no queries, of more than MaxBatch, or with a
// vertex outside [0, vertices), with the error both tiers answer 400.
func (b *BatchRequest) Check(vertices int) error {
	if len(b.Queries) == 0 {
		return errors.New("empty batch")
	}
	if len(b.Queries) > MaxBatch {
		return fmt.Errorf("batch of %d exceeds limit %d", len(b.Queries), MaxBatch)
	}
	for i, q := range b.Queries {
		if q.Vertex < 0 || q.Vertex >= vertices {
			return fmt.Errorf("query %d: vertex %d out of range [0,%d)", i, q.Vertex, vertices)
		}
	}
	return nil
}

type UpdateRequest struct {
	Op     string  `json:"op"` // add_user | add_venue | add_edge | del_edge | move_venue
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	From   int     `json:"from"`
	To     int     `json:"to"`
	Vertex int     `json:"vertex"` // move_venue: the venue to relocate
}

// ErrorReply is every non-2xx reply of both tiers.
type ErrorReply struct {
	Error string `json:"error"`
}

type ServerQueryReply struct {
	Reachable bool   `json:"reachable"`
	Cached    bool   `json:"cached"`
	Gen       uint64 `json:"gen"`
	Micros    int64  `json:"micros"`
	// Shard, TraceID and Stats are set on traced replies only: the
	// server's shard id, the traceparent's trace id, and the query's
	// rangereach.QueryStats, which the router passes into its cluster
	// trace without interpreting it.
	Shard   string          `json:"shard,omitempty"`
	TraceID string          `json:"trace_id,omitempty"`
	Stats   json.RawMessage `json:"stats,omitempty"`
}

// AppendJSON appends an untraced q as encoding/json encodes it,
// trailing newline included, without reflection or an encoder.
func (q ServerQueryReply) AppendJSON(b []byte) []byte {
	b = append(b, `{"reachable":`...)
	b = strconv.AppendBool(b, q.Reachable)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, q.Cached)
	b = append(b, `,"gen":`...)
	b = strconv.AppendUint(b, q.Gen, 10)
	b = append(b, `,"micros":`...)
	b = strconv.AppendInt(b, q.Micros, 10)
	return append(b, "}\n"...)
}

type RouterQueryReply struct {
	Reachable bool  `json:"reachable"`
	Micros    int64 `json:"micros"`
	// Shards counts the shard calls made after pruning.
	Shards int `json:"shards"`
	// TraceID names the cluster trace the request collected.
	TraceID string `json:"trace_id,omitempty"`
}

// AppendJSON appends q as encoding/json encodes it, trailing newline
// included. A trace id is hex, so it needs no escaping.
func (q RouterQueryReply) AppendJSON(b []byte) []byte {
	b = append(b, `{"reachable":`...)
	b = strconv.AppendBool(b, q.Reachable)
	b = append(b, `,"micros":`...)
	b = strconv.AppendInt(b, q.Micros, 10)
	b = append(b, `,"shards":`...)
	b = strconv.AppendInt(b, int64(q.Shards), 10)
	if q.TraceID != "" {
		b = append(b, `,"trace_id":"`...)
		b = append(b, q.TraceID...)
		b = append(b, '"')
	}
	return append(b, "}\n"...)
}

type ServerBatchReply struct {
	Results []bool `json:"results"`
	Gen     uint64 `json:"gen"`
	Micros  int64  `json:"micros"`
}

type RouterBatchReply struct {
	Results []bool `json:"results"`
	Micros  int64  `json:"micros"`
	Shards  int    `json:"shards"`
	TraceID string `json:"trace_id,omitempty"`
}

type ServerUpdateReply struct {
	ID  *int   `json:"id,omitempty"` // add_user and add_venue only
	Gen uint64 `json:"gen"`
}

// RouterUpdateReply adds the owning shard of a venue op; Gen is the
// highest generation the update reached on the shards it touched.
type RouterUpdateReply struct {
	ID    *int   `json:"id,omitempty"`
	Owner *int   `json:"owner,omitempty"`
	Gen   uint64 `json:"gen"`
}

// ExplainReply is rrserve's /v1/explain reply; Stats is the query's
// rangereach.QueryStats.
type ExplainReply struct {
	Reachable bool            `json:"reachable"`
	Gen       uint64          `json:"gen"`
	Stats     json.RawMessage `json:"stats"`
}

type ServerHealthz struct {
	Status   string `json:"status"`
	Mode     string `json:"mode"`
	Method   string `json:"method"`
	Vertices int    `json:"vertices"`
	Gen      uint64 `json:"gen"`
}

type RouterHealthz struct {
	Status   string     `json:"status"`
	Shards   int        `json:"shards"`
	Backends int        `json:"backends"`
	Vertices int        `json:"vertices"`
	Space    [4]float64 `json:"space"`
	Strategy string     `json:"strategy"`
	Down     []int      `json:"down,omitempty"`
}

// ClusterReply is rrrouter's /v1/cluster view, the one rrtop draws.
type ClusterReply struct {
	Shards []ClusterShard `json:"shards"`
	Router ClusterRouter  `json:"router"`
	// ClusterP99Micros merges every shard's latency histogram.
	ClusterP99Micros float64 `json:"cluster_p99_micros"`
	MaxGeneration    uint64  `json:"max_generation"`
}

type ClusterShard struct {
	ID      int    `json:"id"`
	Backend string `json:"backend"`
	Down    bool   `json:"down"` // the router's passive health breaker
	// ScrapeError is the last scrape's failure; ScrapeAgeMillis is -1
	// before the first scrape.
	ScrapeError     string  `json:"scrape_error,omitempty"`
	ScrapeAgeMillis int64   `json:"scrape_age_ms"`
	Queries         int64   `json:"queries_total"`
	Inflight        int64   `json:"inflight"`
	CacheHitRatio   float64 `json:"cache_hit_ratio"`
	P50Micros       float64 `json:"p50_micros"`
	P99Micros       float64 `json:"p99_micros"`
	Gen             uint64  `json:"gen"` // 0 for static shards
}

type ClusterRouter struct {
	Requests   int64   `json:"requests_total"`
	Errors     int64   `json:"errors_total"`
	EarlyExits int64   `json:"early_exits_total"`
	Pruned     int64   `json:"pruned_shards_total"`
	Inflight   int64   `json:"inflight"`
	P50Micros  float64 `json:"p50_micros"`
	P99Micros  float64 `json:"p99_micros"`
	Traces     int64   `json:"traces_total"`
	TracesKept int64   `json:"traces_kept_total"`
}

// TracesReply is rrrouter's /v1/traces reply, newest first.
type TracesReply struct {
	Traces []TraceSummary `json:"traces"`
}

type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	Endpoint   string    `json:"endpoint"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	Status     int       `json:"status"`
	Reason     string    `json:"reason"`
	Spans      int       `json:"spans"`
}

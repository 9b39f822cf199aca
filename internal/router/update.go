package router

// Cluster updates: POST /v1/update routed to the owning shard(s).
//
// The shards replicate the full social graph and partition only the
// venue set (internal/shard), which fixes the routing rule per op:
//
//   - add_user, add_edge, del_edge touch the shared graph: broadcast
//     to every shard, all must succeed.
//   - add_venue has exactly one owner — the shard whose venue bounds
//     best fit the point. The owner gets the venue; every other shard
//     gets an add_user placeholder so the global vertex-id space stays
//     aligned (the router verifies the returned ids agree).
//   - move_venue is broadcast: only the owner holds the vertex as a
//     venue and answers 200, the rest answer 409 ("not a venue") which
//     the router tolerates; at least one success is required.
//
// All updates serialize on updateMu: the id-alignment step must not
// interleave with another add, and the copy-on-write pruning view has a
// single writer. Updates are never replayed — a replayed mutation is
// not idempotent the way a query is.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/httpjson"
)

// shardUpdateResult is one shard's outcome in a fan-out.
type shardUpdateResult struct {
	sid    int
	status int
	reply  httpjson.ServerUpdateReply
	err    error
}

// postUpdate sends one update to one shard. Unlike callShard it is
// not marked replayable, bypasses the health breaker (an update must reach every
// shard; a down shard simply fails it), and surfaces the HTTP status so
// callers can tolerate expected rejections (move_venue non-owners).
func (rt *Router) postUpdate(ctx context.Context, sid int, body []byte) shardUpdateResult {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rt.cfg.Backends[sid]+"/v1/update", bytes.NewReader(body))
	if err != nil {
		return shardUpdateResult{sid: sid, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return shardUpdateResult{sid: sid, err: err}
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return shardUpdateResult{sid: sid, err: err}
	}
	out := shardUpdateResult{sid: sid, status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("shard %d: %s: %s", sid, resp.Status, firstLine(data))
		return out
	}
	if err := json.Unmarshal(data, &out.reply); err != nil {
		out.err = fmt.Errorf("shard %d: bad reply: %w", sid, err)
	}
	return out
}

// fanoutUpdate sends per-shard bodies to every shard concurrently and
// returns the results indexed by shard id.
func (rt *Router) fanoutUpdate(ctx context.Context, bodies [][]byte) []shardUpdateResult {
	results := make([]shardUpdateResult, len(bodies))
	var wg sync.WaitGroup
	for sid := range bodies {
		sid := sid
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[sid] = rt.postUpdate(ctx, sid, bodies[sid])
		}()
	}
	wg.Wait()
	return results
}

// ownerFor picks the shard owning a venue at p: the shard whose bounds
// need the least area enlargement to cover it (ties break to the
// smaller bounds, then the lower id) — the R-tree ChooseSubtree rule
// applied to shard placement.
func (rt *Router) ownerFor(p geom.Point) int {
	best, bestEnl, bestArea := 0, -1.0, -1.0
	for sid, b := range rt.view.Load().bounds {
		pr := geom.RectFromPoint(p)
		var enl, area float64
		if b.IsEmpty() {
			// A shard with no venues yet: treat placing the first venue
			// as zero enlargement so empty shards absorb new territory.
			enl, area = 0, 0
		} else {
			enl, area = b.Enlargement(pr), b.Area()
		}
		if bestEnl < 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = sid, enl, area
		}
	}
	return best
}

// grow extends shard sid's pruning view to a venue at p: its bounds
// cover p and its cells mark p's cell, which a p outside the map's
// space clamps onto the border, as a query reaching p does.
// Copy-on-write under updateMu: readers keep whatever view they loaded.
func (rt *Router) grow(sid int, p geom.Point) {
	old, pr := rt.view.Load(), geom.RectFromPoint(p)
	if old.bounds[sid].ContainsPoint(p) && old.cells[sid].Meets(rt.grid, pr) {
		return
	}
	fresh := &placement{bounds: slices.Clone(old.bounds), cells: slices.Clone(old.cells)}
	if fresh.bounds[sid].IsEmpty() {
		fresh.bounds[sid] = pr // an inverted on-disk rectangle is empty, not a corner
	} else {
		fresh.bounds[sid] = fresh.bounds[sid].Union(pr)
	}
	fresh.cells[sid].Mark(rt.grid, pr)
	rt.view.Store(fresh)
}

// maxGen folds the generation high-water mark over successful results.
func maxGen(results []shardUpdateResult) uint64 {
	var g uint64
	for _, res := range results {
		if res.err == nil && res.reply.Gen > g {
			g = res.reply.Gen
		}
	}
	return g
}

func (rt *Router) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req httpjson.UpdateRequest
	if !rt.front.Decode(w, r, nil, &req) {
		return
	}
	rt.updateMu.Lock()
	defer rt.updateMu.Unlock()
	switch req.Op {
	case "add_user", "add_edge", "del_edge":
		rt.broadcastUpdate(w, r.Context(), req)
	case "add_venue":
		rt.placeVenue(w, r.Context(), req)
	case "move_venue":
		rt.moveVenue(w, r.Context(), req)
	default:
		rt.front.WriteError(w, http.StatusBadRequest,
			"unknown op %q (want add_user, add_venue, add_edge, del_edge or move_venue)", req.Op)
	}
}

// broadcastUpdate applies a shared-graph op on every shard; all must
// succeed. A partial failure leaves the cluster inconsistent for that
// op, which the 502 reports loudly — the operator replays the op once
// the failed shard is back (shard updates are idempotent: duplicate
// edges and deletes of missing edges are the only effects of a replay,
// and both are handled).
func (rt *Router) broadcastUpdate(w http.ResponseWriter, ctx context.Context, req httpjson.UpdateRequest) {
	body, err := json.Marshal(req)
	if err != nil {
		rt.front.WriteError(w, http.StatusInternalServerError, "encoding shard request: %v", err)
		return
	}
	bodies := make([][]byte, len(rt.cfg.Backends))
	for sid := range bodies {
		bodies[sid] = body
	}
	results := rt.fanoutUpdate(ctx, bodies)
	var ids []int
	for _, res := range results {
		if res.err != nil {
			// A shard-side rejection (409: out-of-range vertex, missing
			// edge) is deterministic across the replicated graph, so the
			// first one speaks for the cluster; transport failures are 502.
			if res.status == http.StatusConflict {
				rt.front.WriteError(w, http.StatusConflict, "%v", res.err)
			} else {
				rt.front.WriteError(w, http.StatusBadGateway, "%v", res.err)
			}
			return
		}
		if res.reply.ID != nil {
			ids = append(ids, *res.reply.ID)
		}
	}
	resp := httpjson.RouterUpdateReply{Gen: maxGen(results)}
	if req.Op == "add_user" {
		if len(ids) != len(results) || !allEqual(ids) {
			rt.front.WriteError(w, http.StatusInternalServerError,
				"cluster id space diverged: add_user returned ids %v", ids)
			return
		}
		resp.ID = &ids[0]
	}
	rt.front.WriteJSON(w, http.StatusOK, resp)
}

// placeVenue routes add_venue to its owner shard and aligns the id
// space everywhere else with add_user placeholders.
func (rt *Router) placeVenue(w http.ResponseWriter, ctx context.Context, req httpjson.UpdateRequest) {
	owner := rt.ownerFor(geom.Pt(req.X, req.Y))
	venueBody, err := json.Marshal(httpjson.UpdateRequest{Op: "add_venue", X: req.X, Y: req.Y})
	if err != nil {
		rt.front.WriteError(w, http.StatusInternalServerError, "encoding shard request: %v", err)
		return
	}
	userBody, err := json.Marshal(httpjson.UpdateRequest{Op: "add_user"})
	if err != nil {
		rt.front.WriteError(w, http.StatusInternalServerError, "encoding shard request: %v", err)
		return
	}
	bodies := make([][]byte, len(rt.cfg.Backends))
	for sid := range bodies {
		if sid == owner {
			bodies[sid] = venueBody
		} else {
			bodies[sid] = userBody
		}
	}
	results := rt.fanoutUpdate(ctx, bodies)
	var ids []int
	for _, res := range results {
		if res.err != nil {
			rt.front.WriteError(w, http.StatusBadGateway, "%v", res.err)
			return
		}
		if res.reply.ID == nil {
			rt.front.WriteError(w, http.StatusInternalServerError, "shard %d: add returned no id", res.sid)
			return
		}
		ids = append(ids, *res.reply.ID)
	}
	if !allEqual(ids) {
		rt.front.WriteError(w, http.StatusInternalServerError,
			"cluster id space diverged: add_venue returned ids %v", ids)
		return
	}
	rt.grow(owner, geom.Pt(req.X, req.Y))
	rt.front.WriteJSON(w, http.StatusOK, httpjson.RouterUpdateReply{ID: &ids[0], Owner: &owner, Gen: maxGen(results)})
}

// moveVenue broadcasts move_venue; only the owner holds the vertex as a
// venue, the replicas answer 409 which is expected and ignored.
func (rt *Router) moveVenue(w http.ResponseWriter, ctx context.Context, req httpjson.UpdateRequest) {
	body, err := json.Marshal(req)
	if err != nil {
		rt.front.WriteError(w, http.StatusInternalServerError, "encoding shard request: %v", err)
		return
	}
	bodies := make([][]byte, len(rt.cfg.Backends))
	for sid := range bodies {
		bodies[sid] = body
	}
	results := rt.fanoutUpdate(ctx, bodies)
	owner := -1
	for _, res := range results {
		switch {
		case res.err == nil:
			owner = res.sid
		case res.status == http.StatusConflict:
			// Not a venue on this shard: the expected non-owner answer.
		default:
			rt.front.WriteError(w, http.StatusBadGateway, "%v", res.err)
			return
		}
	}
	if owner < 0 {
		rt.front.WriteError(w, http.StatusConflict, "vertex %d is not a venue on any shard", req.Vertex)
		return
	}
	rt.grow(owner, geom.Pt(req.X, req.Y))
	rt.front.WriteJSON(w, http.StatusOK, httpjson.RouterUpdateReply{Owner: &owner, Gen: maxGen(results)})
}

func allEqual(ids []int) bool {
	for _, id := range ids {
		if id != ids[0] {
			return false
		}
	}
	return true
}

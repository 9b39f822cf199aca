#!/usr/bin/env bash
# ci.sh — the checks every PR must keep green.
#
#   ./ci.sh        vet + gofmt + rrlint + govulncheck when installed
#                  + build (all packages and binaries) + full test
#                  suite, which holds the docs gate (TestDocsResolve:
#                  README.md's, DESIGN.md's and the verify skill's
#                  backticked names resolve against the tree)
#                  + the read paths' count guards + the examples
#                  + the benchmark module's own vet
#                  and tests + fuzz seed corpora + format compat
#                  + 30 s each of index-loader, network-loader, tiles
#                  and update-stream fuzzing
#                  + race-exercised concurrency tests
#                  + trace-overhead benchmark under -race
#                  + coverage floor + mutants (testdata/mutants.json)
#                  + rrbench smoke (every -exp)
#                  + live smokes: sharded serving, cluster breaker,
#                  cluster trace, update churn, rrtop -once
#   ./ci.sh -short skips the fuzzing, the race passes, coverage,
#                  the mutants and the live smokes
set -euo pipefail
cd "$(dirname "$0")"

# Minimum total statement coverage (percent). The suite sits at ~82%;
# the floor leaves headroom for legitimate churn while catching a PR
# that lands a subsystem without tests.
COVERAGE_FLOOR=75

echo "== go vet =="
go vet ./...

# gofmt -l prints the files it would rewrite, over the whole tree
# (the nested benchmark module and the lint fixtures included); any
# name is a failure.
echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    printf 'gofmt would rewrite:\n%s\n' "$unformatted" >&2
    exit 1
fi

echo "== rrlint =="
go run ./cmd/rrlint ./...

# govulncheck is not vendored and CI images may lack it; run it when
# present, skip loudly when not. It needs network for the vuln DB, so
# a failure to *reach* the DB is also non-fatal.
echo "== govulncheck (best effort) =="
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./... || echo "govulncheck reported issues (non-fatal: advisory stage)" >&2
else
    echo "govulncheck not installed; skipping"
fi

echo "== go build (all packages and binaries) =="
go build ./...

echo "== go test =="
go test ./...

# The read paths' zero-tolerance guards, uncached: nodes and entries
# touched per query (bounded whatever the label's interval count, on the
# static and the dynamic path) and allocations per query (zero, on built,
# mapped and snapshot indexes). They compare counts that repeat exactly,
# so a loaded runner cannot blur them the way it blurs a timing.
# ./internal/tiles holds 3DReach's tiles of venue rectangles, whose guard
# counts slabs, cells and tested entries against the ones the region
# meets.
# ./internal/graph is here for the build path's one such guard:
# Builder.Build allocates the same number of times at 1k and at 100k
# edges (TestBuildAllocsCostIndependent). ./internal/labeling guards
# 3DReach's rank-keyed labels: chains of users interleaved with the
# venues leave the stored interval count exactly unchanged
# (TestRankLabelsCostIndependentOfUsers); and the mapped open: FromFlat
# allocates as often and as many bytes at 1k and at 64k vertices, since
# it keeps the label columns it is given
# (TestFromFlatAllocsCostIndependent). ./internal/dataset guards the
# member columns: Prepare allocates as often at 1k and at 64k components
# (TestPrepareAllocsCostIndependent). ./internal/incr guards the
# dynamic read path: a fragmented label's probe visits no more tile
# slabs, cells and points than the label-blind walk of its region and
# tests no more overlay entries than the region's grid cells hold
# (TestProbeCostIndependentOfLabelFragmentation), and tests the same
# overlay entries whether 1k or 16k lie in other cells
# (TestOverlayProbeCostIndependentOfOverlaySize); and its publish path:
# Snapshot allocates the same bytes at 4k and at 64k vertices, and under
# 1 KiB, since it shares every column and structure it captures
# (TestPublishCostIndependentOfVertexCount). It also guards the
# split path at 1k and 8k members: the vertices a split visits, for one
# peel, a second peel and a pivot (TestPeelCostIndependentOfComponentSize),
# and the components the flush relabels, which leave the giant out
# unless it lost a successor (TestSplitRelabelCostIndependentOfComponentSize).
# A giant that checks into 2k or 16k venues and is a relabel seed is
# re-derived from its coverage count, reading no successor label at
# either size (TestGiantRelabelCostIndependentOfOutDegree).
echo "== count guards =="
go test -run 'CostIndependent|DoesNotAllocate' \
    ./internal/core ./internal/incr ./internal/graph ./internal/tiles \
    ./internal/labeling ./internal/dataset -count=1

# The example programs are the public API's end-to-end users; each runs
# once and exits non-zero on an error or on a wrong answer: epidemic
# checks 3DReach-Rev, which no other public-API caller builds, against
# the naive BFS oracle, and poirecommend checks 3DReach against
# SpaReach-BFL. All five take about 1.3 s.
echo "== examples =="
for ex in examples/*/; do
    go run "./$ex" >/dev/null
done

# benchmark/ is its own module (BENCHMARK.json's command runs it), so
# ./... above stops at its go.mod. Its tests are the guards on the
# benchmark itself: a smoke run of all four workloads against their
# oracles, and the check that every metric name it can print is
# declared in BENCHMARK.json and the other way round.
echo "== benchmark module (vet + test) =="
go -C benchmark vet ./...
go -C benchmark test ./...

# The fuzz harnesses double as invariant suites: every seed (valid and
# corrupted index images, parity networks) runs through the deep
# validators and the BFS oracle. This replays the committed corpora —
# including regression inputs under testdata/fuzz — without fuzzing.
# ./internal/incr's FuzzUpdateStream replays update streams (the
# merge-then-peel pattern of the churn benchmark, the bridge cases,
# venues moved twice in one epoch, moved across grid cells and folded,
# or added outside the initial space, a network with extents, and
# regression inputs for a two-peel split, a pivot split, a peel that
# loses the giant a successor, and a split into pieces the kept one
# does not all reach, and a counted component absorbed by a merge)
# against a BFS mirror and a rebuild arm, each under the default
# counting rule and with the counting threshold at 1; every publish runs
# Validate, label exactness on live posts and the counted label included.
# ./internal/tiles's FuzzTiles checks 3DReach's tiles against a scan
# of their entries, with and without a tombstone filter: sizes around
# one cell and past many, duplicate locations, one shared x, extents of
# zero width or height and one huge extent among small ones, region
# edges on entry corners and on cell bounds, labels of 1 to 64
# intervals.
# ./internal/router's FuzzPruneKeepsHolders checks that the router never
# prunes a shard holding a venue in the query region: random networks
# with points and extents (a collinear space too), Spatial's shards and
# round-robin shards whose venues interleave over the whole space,
# 1-5 shards, regions that are points, on cell edges, past the space or
# the whole of it, on the query and the batch path, and after venues are
# added and moved outside the map's space through the update path.
# ./internal/dataset's FuzzLoad reads a network, writes it with Save and
# reads it again, and wants the two loads equal: name, check-ins, spatial
# flags, points and extents bit for bit, and every out-row. Its seeds
# give Builder.Build sorted, unsorted, repeated and looping edges.
echo "== fuzz (seed corpus) =="
go test -run 'Fuzz' . ./internal/incr ./internal/tiles ./internal/router ./internal/dataset

# The format-compatibility gate. The loader reads the layout the writer
# writes plus the one generation before it (DESIGN.md §16), for the two
# persistable methods, 3DReach and GeoReach. Their golden fixtures under
# testdata/format, and the older 3DReach generation
# (3dreach-v2-posts.idx), keep loading, mapping and answering the
# pinned queries (TestFormatCompatGolden, TestFormatV2PostKeys);
# save(load(v2)) stays byte-identical; the decode and mmap paths survive
# a truncation and a flip at every offset of every layout still read
# (TestLoadCorrupted, TestFormatV2CorruptionMapped) and serve in full
# parity with a build. The retired files under testdata/format/retired,
# frozen by hash, are refused by both paths with core.ErrRetiredFormat,
# naming what was found and the remedy (TestFormatRetiredRefused): among
# them 3dreach-mbr-v2.idx and 3dreach-rev-mbr-v2.idx, refused because
# 3DReach and 3DReach-Rev no longer have an MBR policy, and the v2
# records of 3DReach-Rev, SocReach, SpaReach-BFL, SpaReach-INT and Auto,
# methods that no longer save; only a rebuild from the network replaces
# those. Regenerate the v2 fixtures only on deliberate format changes:
# go test -run TestFormatCompatGolden -update-format .
# .github/workflows/ci.yml's format-compat job runs this same pattern.
echo "== format compat =="
go test -run 'TestFormat|TestOpenMapped|TestSaveLoadV2|TestLoadRejects|TestLoadCorrupted|TestIndexSaveLoad' -count=1 .

if [[ "${1:-}" != "-short" ]]; then
    # The loader under real fuzzing, not only its seeds: arbitrary bytes
    # through LoadIndex must give an error or a validated index. A
    # failing input is written to testdata/fuzz/FuzzPersistRoundtrip.
    echo "== loader fuzz (30 s) =="
    go test -run '^$' -fuzz '^FuzzPersistRoundtrip$' -fuzztime 30s .
fi

if [[ "${1:-}" != "-short" ]]; then
    # The network parser under real fuzzing: arbitrary bytes through
    # dataset.Load must give an error or a valid network that survives
    # Save and Load unchanged, through the in-place point and edge
    # readers and both of Build's paths. A failing input is written to
    # internal/dataset/testdata/fuzz/FuzzLoad.
    echo "== network loader fuzz (30 s) =="
    go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 30s ./internal/dataset
fi

if [[ "${1:-}" != "-short" ]]; then
    # The tiles under real fuzzing: arbitrary entry sets, points and
    # extents, must validate and answer every region and label as a scan
    # of the entries does, with and without tombstones. A failing input
    # is written to internal/tiles/testdata/fuzz/FuzzTiles.
    echo "== tiles fuzz (30 s) =="
    go test -run '^$' -fuzz '^FuzzTiles$' -fuzztime 30s ./internal/tiles
fi

if [[ "${1:-}" != "-short" ]]; then
    # The dynamic writer under real fuzzing, not only its seeds: arbitrary
    # update streams must keep the index and every snapshot valid and
    # answering as the BFS mirror does, with and without a counted
    # component. A failing input is written to
    # internal/incr/testdata/fuzz/FuzzUpdateStream.
    echo "== update-stream fuzz (30 s) =="
    go test -run '^$' -fuzz '^FuzzUpdateStream$' -fuzztime 30s ./internal/incr
fi

if [[ "${1:-}" != "-short" ]]; then
    # The concurrency-sensitive packages: the root package (batch
    # work-stealing, dynamic snapshots, parallel-vs-sequential build
    # determinism), the worker pool the parallel build pipeline fans
    # out on, the serving subsystem (snapshot swaps, result cache,
    # metrics), the engines (Auto's members build concurrently, and
    # its parity suite runs in ./internal/core), the sharded-serving
    # tier (scatter-gather fan-out, health mark-down, shard
    # partitioning), and the incremental-maintenance engine
    # (randomized update-stream equivalence against a from-scratch
    # oracle), the R-tree bulk load (parallel STR slabs and leaf bounds,
    # its only concurrency), the flat format, the tiles (the kernel every
    # reader of a built, mapped or dynamic 3DReach shares), and the trace
    # package (the cluster-trace ring, the build-phase span and the
    # sampler, whose lock discipline only the race detector checks).
    echo "== go test -race (concurrency surfaces) =="
    go test -race . ./internal/pool ./internal/server ./internal/metrics ./internal/core ./internal/router ./internal/shard ./internal/incr ./internal/rtree ./internal/flatbuf ./internal/tiles ./internal/trace

    # The trace hook sits on every query's hot path; run the overhead
    # benchmark under the race detector so the instrumentation itself is
    # exercised for data races (the timings are not meaningful here).
    echo "== trace-overhead benchmark under -race =="
    go test -race -run '^$' -bench BenchmarkTraceOverhead -benchtime 50x .

    echo "== coverage (floor ${COVERAGE_FLOOR}%) =="
    go test -coverprofile=/tmp/rr-cover.out ./... > /tmp/rr-cover.txt
    grep -E 'coverage: [0-9.]+% of statements' /tmp/rr-cover.txt || true
    total=$(go tool cover -func=/tmp/rr-cover.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
    echo "total coverage: ${total}%"
    awk -v t="$total" -v floor="$COVERAGE_FLOOR" 'BEGIN { exit !(t >= floor) }' \
        || { echo "coverage ${total}% is below the ${COVERAGE_FLOOR}% floor" >&2; exit 1; }

    # Every gate in testdata/mutants.json must still catch its
    # regression: each entry is applied to a copy of the module and its
    # gate run there with -count=1, two at a time; a gate that passes
    # (a survivor) or a mutant that does not build fails the stage. The
    # tier-1 TestMutantSnippets keeps each snippet present exactly once.
    echo "== mutants =="
    go test -run '^TestMutantsKilled$' -mutants -count=1 -timeout 10m .
fi

# Every -exp table row end to end on a tiny preset, through the
# command's flag parsing and output path; an unknown name must exit 2
# before any dataset is generated.
# (A built binary, not go run, which reports every failing exit as 1.)
echo "== rrbench smoke =="
go build -o /tmp/rrbench-smoke ./cmd/rrbench
/tmp/rrbench-smoke -exp all -scale 0.05 -queries 20 \
    -datasets weeplaces-like >/dev/null
status=0
/tmp/rrbench-smoke -exp nope 2>/dev/null || status=$?
rm -f /tmp/rrbench-smoke
[[ "$status" -eq 2 ]] \
    || { echo "rrbench -exp nope exited $status, want 2" >&2; exit 1; }

if [[ "${1:-}" != "-short" ]]; then
    # Sharded-serving smoke: boot a live 2-shard cluster behind
    # rrrouter and drive it with the open-loop harness for a few
    # seconds. Any request error fails the gate; the p99 SLO is set far
    # above healthy latency (~3ms on an idle runner) so only a wedged
    # cluster trips it.
    echo "== sharded serving smoke =="
    SMOKE_DIR=$(mktemp -d /tmp/rr-shard-smoke.XXXXXX)
    SMOKE_PIDS=""
    cleanup_smoke() {
        # shellcheck disable=SC2086
        [ -n "$SMOKE_PIDS" ] && kill $SMOKE_PIDS 2>/dev/null
        wait 2>/dev/null
        rm -rf "$SMOKE_DIR"
    }
    trap cleanup_smoke EXIT
    go build -o "$SMOKE_DIR" ./cmd/rrgen ./cmd/rrserve ./cmd/rrrouter \
        ./cmd/rrload ./cmd/rrquery ./cmd/rrtop
    "$SMOKE_DIR/rrgen" -preset gowalla-like -scale 0.2 -seed 3 \
        -o "$SMOKE_DIR/smoke.gsn" -shards 2 -index 3dreach 2>/dev/null
    # The shard map carries each shard's occupancy cells, which the
    # router prunes by; a map without them would fall back to bounds.
    cells=$(grep -c '"cells": \[' "$SMOKE_DIR/smoke.shardmap.json" || true)
    [[ "$cells" -eq 2 ]] \
        || { echo "smoke.shardmap.json carries cells for $cells of 2 shards" >&2; exit 1; }
    B1=http://127.0.0.1:18741
    B2=http://127.0.0.1:18742
    # A -backends list that does not give each shard a process of its
    # own is refused before the router listens (124 would mean it
    # listened until timeout killed it).
    status=0
    timeout 10 "$SMOKE_DIR/rrrouter" -shardmap "$SMOKE_DIR/smoke.shardmap.json" \
        -backends "$B1" -addr 127.0.0.1:18740 -log off 2>/dev/null || status=$?
    [[ "$status" -ne 0 && "$status" -ne 124 ]] \
        || { echo "rrrouter with 1 backend for 2 shards exited $status, want a refusal" >&2; exit 1; }
    # Shard i is served by the i-th backend: boot each rrserve with its
    # shard file, tagged with its shard id so logs and metrics carry
    # cluster-correlation fields.
    for sid in 0 1; do
        port=$((18741 + sid))
        "$SMOKE_DIR/rrserve" -net "$SMOKE_DIR/smoke.shard$sid.gsn" \
            -load-index "$SMOKE_DIR/smoke.shard$sid.gsn.idx" -mmap \
            -addr "127.0.0.1:$port" -shard "$sid" -log off &
        SMOKE_PIDS="$SMOKE_PIDS $!"
        [[ "$sid" -eq 0 ]] && SHARD0_PID=$!
    done
    # The trace ring must hold every forced trace the load run below
    # generates (rate x duration = 600), or the slowest one may be
    # evicted before rrload fetches its breakdown.
    "$SMOKE_DIR/rrrouter" -shardmap "$SMOKE_DIR/smoke.shardmap.json" \
        -backends "$B1,$B2" -addr 127.0.0.1:18740 -log off -wait-backends 30s \
        -trace-ring 1024 &
    ROUTER_PID=$!
    SMOKE_PIDS="$SMOKE_PIDS $!"
    "$SMOKE_DIR/rrload" -target http://127.0.0.1:18740 -rate 200 -duration 3s \
        -wait 30s -fail-on-error -slo 500ms -trace -json \
        > "$SMOKE_DIR/load.json" 2> "$SMOKE_DIR/load.err"
    grep -q '"schema": "rrload/v1"' "$SMOKE_DIR/load.json"
    grep -q '"slowest_trace_id"' "$SMOKE_DIR/load.json"
    # The stitched breakdown of the slowest request (stderr under -json):
    # the router's placement span, and a shard_call span whenever
    # placement kept a shard. A region of this load that meets no
    # shard's occupied cells is answered with no shard call, so the
    # slowest request may have none.
    grep -q 'slowest trace .* endpoint=query status=200' "$SMOKE_DIR/load.err"
    grep -q 'span name=placement' "$SMOKE_DIR/load.err"
    grep -q 'span name=placement .* shards=0$' "$SMOKE_DIR/load.err" \
        || grep -q 'span name=shard_call' "$SMOKE_DIR/load.err"
    # Connection churn: the router should dial each backend once for
    # the whole run. Measured on the 2-CPU reference box over these 600
    # requests (7-12 of them early exits): 2 dials at this commit, 8-11
    # at its parent, which canceled every early-exit straggler and with
    # it the connection. The bound leaves room for a straggler or two
    # that a loaded runner holds past its grace, and is half the
    # parent's best reading.
    # (bash's /dev/tcp, so the gate needs no curl.)
    exec 3<>/dev/tcp/127.0.0.1/18740
    printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
    dials=$(awk '$1 == "rr_router_backend_dials_total" { print $2 }' <&3)
    exec 3<&-
    echo "rr_router_backend_dials_total: ${dials:-missing}"
    [[ -n "$dials" && "$dials" -le 4 ]] \
        || { echo "router dialed its backends ${dials:-?} times for 600 requests (bound 4)" >&2; exit 1; }

    # The breaker, live: shard 0 dies while the router is up. A
    # whole-space query needs it, so each is answered a 502, or a 200
    # when live shard 1 answers positively, and never a 200 marked
    # partial. Once shard 0 has failed 3 calls /healthz lists it down.
    # (bash's /dev/tcp again: router_http prints the raw reply.)
    echo "== cluster breaker smoke =="
    router_http() {
        local method=$1 path=$2 body=${3:-}
        exec 3<>/dev/tcp/127.0.0.1/18740
        printf '%s %s HTTP/1.0\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s' \
            "$method" "$path" "${#body}" "$body" >&3
        cat <&3
        exec 3<&-
    }
    kill "$SHARD0_PID"
    wait "$SHARD0_PID" 2>/dev/null || true
    marked=""
    for i in $(seq 30); do
        reply=$(router_http POST /v1/query '{"vertex":0,"region":[-180,-90,180,90]}')
        status=$(head -n1 <<<"$reply" | awk '{ print $2 }')
        if [[ "$status" != 502 && ( "$status" != 200 || "$reply" == *'"partial"'* ) ]]; then
            echo "whole-space query $i with shard 0 dead: $reply" >&2; exit 1
        fi
        errs=$(router_http GET /metrics | awk '$1 == "rr_router_shard_errors_total{shard=\"0\"}" { print $2 }')
        if [[ "${errs:-0}" -ge 3 ]]; then
            healthz=$(router_http GET /healthz)
            [[ "$healthz" == *'"down":[0]'* ]] \
                || { echo "shard 0 failed $errs calls, /healthz: $healthz" >&2; exit 1; }
            marked=$i; break
        fi
    done
    [[ -n "$marked" ]] || { echo "shard 0 failed ${errs:-?} calls in 30 whole-space queries, want 3" >&2; exit 1; }
    echo "shard 0 marked down after $marked whole-space queries"

    # Distributed-trace smoke: one traced query through the live
    # cluster, stitched by the router and fetched back from
    # /v1/trace/{id}. A whole-space region touches every shard, so the
    # trace must contain the router's own orchestration spans plus one
    # shard_call span per shard.
    #
    # Shard 0 and the router are restarted with -log json first, so the
    # query is also written to both tiers' request logs. (The load run
    # above keeps -log off: its dial bound was measured without
    # request logging.)
    echo "== cluster trace smoke =="
    kill "$ROUTER_PID"
    wait "$ROUTER_PID" 2>/dev/null || true
    "$SMOKE_DIR/rrserve" -net "$SMOKE_DIR/smoke.shard0.gsn" \
        -load-index "$SMOKE_DIR/smoke.shard0.gsn.idx" -mmap \
        -addr 127.0.0.1:18741 -shard 0 -log json 2> "$SMOKE_DIR/shard0.log" &
    SMOKE_PIDS="$SMOKE_PIDS $!"
    "$SMOKE_DIR/rrrouter" -shardmap "$SMOKE_DIR/smoke.shardmap.json" \
        -backends "$B1,$B2" -addr 127.0.0.1:18740 -log json -wait-backends 30s \
        2> "$SMOKE_DIR/router.log" &
    SMOKE_PIDS="$SMOKE_PIDS $!"
    # The router listens once both backends answer /healthz.
    for _ in $(seq 300); do
        (exec 3<>/dev/tcp/127.0.0.1/18740) 2>/dev/null && break
        sleep 0.1
    done
    "$SMOKE_DIR/rrquery" -target http://127.0.0.1:18740 -trace \
        -q "0 -180 -90 180 90" > "$SMOKE_DIR/trace.txt"
    grep -q 'span name=placement tier=router' "$SMOKE_DIR/trace.txt"
    grep -q 'span name=fanout tier=router' "$SMOKE_DIR/trace.txt"
    grep -q 'span name=shard_call tier=shard shard=0' "$SMOKE_DIR/trace.txt"
    grep -q 'span name=shard_call tier=shard shard=1' "$SMOKE_DIR/trace.txt"
    # Both tiers write their request log through the one wrapper in
    # internal/httpjson: shard 0 and the router each hold a record of
    # that query with the same keys and its trace id. A shard's record
    # lands when its handler returns, which may trail the router's reply.
    tid=$(awk '$1 == "trace" { print $2; exit }' "$SMOKE_DIR/trace.txt")
    for reqlog in "$SMOKE_DIR/shard0.log" "$SMOKE_DIR/router.log"; do
        found=""
        for _ in $(seq 50); do
            if grep -F "\"trace_id\":\"$tid\"" "$reqlog" | grep -F '"req":' | grep -F '"method":' \
                | grep -F '"path":' | grep -F '"status":' | grep -qF '"elapsed":'; then
                found=1; break
            fi
            sleep 0.1
        done
        [[ -n "$tid" && -n "$found" ]] \
            || { echo "$reqlog holds no request record of trace ${tid:-?} with req, method, path, status and elapsed" >&2; exit 1; }
    done

    # Update-churn smoke: a standalone dynamic rrserve, over the whole
    # network rrgen wrote above, absorbs a mixed closed-loop update
    # stream while queries run. -check-publish deep-validates every
    # published snapshot, so an incremental-maintenance bug surfaces as
    # a 5xx that -fail-on-error turns into a CI failure; rrload
    # independently fails the run when the index generation ever
    # regresses across update responses.
    echo "== update churn =="
    "$SMOKE_DIR/rrserve" -net "$SMOKE_DIR/smoke.gsn" -dynamic -check-publish \
        -addr 127.0.0.1:18750 -log off &
    SMOKE_PIDS="$SMOKE_PIDS $!"
    "$SMOKE_DIR/rrload" -target http://127.0.0.1:18750 -rate 150 \
        -update-rate 50 -duration 3s -wait 30s -fail-on-error \
        -space 0,0,100,100 -json > "$SMOKE_DIR/churn.json"
    grep -q '"gen_monotonic": true' "$SMOKE_DIR/churn.json"
    ! grep -q '"update_errors"' "$SMOKE_DIR/churn.json"
    # The server's own account of the run (bash's /dev/tcp, as the dials
    # gate reads the router): no snapshot failed publish-time
    # validation, and the updates were published.
    exec 3<>/dev/tcp/127.0.0.1/18750
    printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
    churn_metrics=$(cat <&3)
    exec 3<&-
    checkfails=$(awk '$1 == "rr_publish_check_failures_total" { print $2 }' <<< "$churn_metrics")
    gen=$(awk '$1 == "rr_generation" { print $2 }' <<< "$churn_metrics")
    echo "rr_publish_check_failures_total: ${checkfails:-missing}, rr_generation: ${gen:-missing}"
    [[ "$checkfails" == "0" && -n "$gen" && "$gen" -gt 0 ]] \
        || { echo "churn rrserve reports ${checkfails:-?} publish-check failures at generation ${gen:-?}, want 0 failures and a generation above 0" >&2; exit 1; }

    # Live inspector in its script mode: one ANSI-free snapshot whose
    # shard table shows both shards scraped and healthy.
    echo "== rrtop -once smoke =="
    "$SMOKE_DIR/rrtop" -target http://127.0.0.1:18740 -once > "$SMOKE_DIR/top.txt"
    grep -q 'status=ok shards=2 backends=2' "$SMOKE_DIR/top.txt"
    grep -q "$B1" "$SMOKE_DIR/top.txt"
    grep -q "$B2" "$SMOKE_DIR/top.txt"
    ! grep -q 'DOWN' "$SMOKE_DIR/top.txt"
    cleanup_smoke
    trap - EXIT
fi

echo "CI OK"

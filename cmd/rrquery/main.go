// Command rrquery loads a geosocial network, builds a RangeReach index
// and answers queries from the command line or from a batch file.
//
// Usage:
//
//	rrquery -net foursquare.gsn -method 3dreach -q "42 13.3 52.4 13.5 52.6"
//	rrquery -net foursquare.gsn -method spareach-bfl -batch queries.txt
//
// Each query is `vertex xmin ymin xmax ymax`; the batch file holds one
// query per line ('#' comments allowed). The answer is TRUE when the
// vertex reaches a spatial vertex inside the region.
//
// With -explain each query also prints its execution profile: the work
// counters relevant to the chosen method (labels inspected, index nodes
// visited, candidates probed, ...) and the per-stage timing breakdown.
//
// With -target the query goes to a running rrserve or rrrouter over
// HTTP instead of building an index locally:
//
//	rrquery -target http://127.0.0.1:18740 -q "42 13.3 52.4 13.5 52.6"
//	rrquery -target http://127.0.0.1:18740 -trace -q "42 13.3 52.4 13.5 52.6"
//	rrquery -target http://127.0.0.1:18322 -explain -q "42 13.3 52.4 13.5 52.6"
//
// -explain with -target asks an rrserve for the profile (its
// /v1/explain). That is how to see one query's cost on an updatable
// index: against rrserve -dynamic, "labels inspected" is the interval
// count of the vertex's label and "overlay entries" the overlay
// entries it tested.
//
// -trace sends a W3C traceparent with the query and prints the stitched
// cluster trace fetched back from the router's /v1/trace/{id}: one
// greppable `span name=... tier=... shard=...` line per span, with each
// shard's engine counters indented under its shard_call span.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	rangereach "repro"
	"repro/internal/httpjson"
	"repro/internal/trace"
)

// method is registered at package level so the test can read its help
// text, which lists rangereach.MethodNames and nothing typed by hand.
var method = flag.String("method", "3dreach", strings.Join(rangereach.MethodNames(), ", "))

func main() {
	var (
		netPath = flag.String("net", "", "network file in geosocial format (required)")
		query   = flag.String("q", "", "single query: `vertex xmin ymin xmax ymax`")
		batch   = flag.String("batch", "", "file with one query per line")
		verbose = flag.Bool("v", false, "print index build stats")
		explain = flag.Bool("explain", false, "print each query's execution profile")
		saveIdx = flag.String("save-index", "", "after building, persist the index to this file")
		loadIdx = flag.String("load-index", "", "load a persisted index instead of building (-method is ignored)")
		mmapIdx = flag.Bool("mmap", false, "open -load-index by zero-copy mmap instead of decoding (v2 index files only)")
		target  = flag.String("target", "", "query a running rrserve/rrrouter at this base URL instead of building locally")
		doTrace = flag.Bool("trace", false, "with -target: send a traceparent and print the stitched cluster trace")
	)
	flag.Parse()

	if *target != "" {
		runRemote(strings.TrimRight(*target, "/"), *query, *batch, *doTrace, *explain)
		return
	}
	if *doTrace {
		fmt.Fprintln(os.Stderr, "rrquery: -trace needs -target (local runs use -explain)")
		os.Exit(2)
	}
	if *netPath == "" {
		fmt.Fprintln(os.Stderr, "rrquery: -net is required")
		os.Exit(2)
	}
	m, ok := rangereach.ParseMethod(*method)
	if !ok {
		fmt.Fprintf(os.Stderr, "rrquery: unknown method %q\n", *method)
		os.Exit(2)
	}
	if *saveIdx != "" && *loadIdx == "" {
		if err := checkSaveMethod(m); err != nil {
			fmt.Fprintf(os.Stderr, "rrquery: %v\n", err)
			os.Exit(2)
		}
	}

	net, err := rangereach.LoadNetwork(*netPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrquery: %v\n", err)
		os.Exit(1)
	}
	if *mmapIdx && *loadIdx == "" {
		fmt.Fprintln(os.Stderr, "rrquery: -mmap requires -load-index")
		os.Exit(2)
	}
	var idx *rangereach.Index
	switch {
	case *loadIdx != "" && *mmapIdx:
		idx, err = net.OpenMapped(*loadIdx)
	case *loadIdx != "":
		idx, err = net.LoadIndexFile(*loadIdx)
	default:
		idx, err = net.Build(m)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrquery: %v\n", err)
		os.Exit(1)
	}
	defer idx.Close()
	if *saveIdx != "" {
		if err := idx.SaveFile(*saveIdx); err != nil {
			fmt.Fprintf(os.Stderr, "rrquery: %v\n", err)
			os.Exit(1)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "rrquery: index saved to %s\n", *saveIdx)
		}
	}
	if *verbose {
		st := idx.Stats()
		fmt.Fprintf(os.Stderr, "rrquery: %s over %q (|V|=%d |E|=%d |P|=%d): built in %v, %d bytes\n",
			st.Method, net.Name(), net.NumVertices(), net.NumEdges(), net.NumSpatial(),
			st.BuildTime, st.Bytes)
	}

	run := func(line string) error {
		v, r, err := parseQuery(line)
		if err != nil {
			return err
		}
		if v < 0 || v >= net.NumVertices() {
			return fmt.Errorf("vertex %d out of range [0,%d)", v, net.NumVertices())
		}
		if *explain {
			ans, qs := idx.Explain(v, r)
			fmt.Printf("RangeReach(%d, [%g,%g]x[%g,%g]) = %v  (%v)\n",
				v, r.MinX, r.MaxX, r.MinY, r.MaxY, ans, qs.Duration)
			printStats(qs)
			return nil
		}
		start := time.Now()
		ans := idx.RangeReach(v, r)
		fmt.Printf("RangeReach(%d, [%g,%g]x[%g,%g]) = %v  (%v)\n",
			v, r.MinX, r.MaxX, r.MinY, r.MaxY, ans, time.Since(start))
		return nil
	}

	switch {
	case *query != "":
		if err := run(*query); err != nil {
			fmt.Fprintf(os.Stderr, "rrquery: %v\n", err)
			os.Exit(1)
		}
	case *batch != "":
		f, err := os.Open(*batch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rrquery: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if err := run(line); err != nil {
				fmt.Fprintf(os.Stderr, "rrquery: line %d: %v\n", lineNo, err)
				os.Exit(1)
			}
		}
		if err := sc.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "rrquery: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "rrquery: need -q or -batch")
		os.Exit(2)
	}
}

// checkSaveMethod refuses -save-index for a method Index.SaveFile has
// no format for, before the network is read or an index built. A
// -load-index file needs no check: the loader opens only methods that
// save.
func checkSaveMethod(m rangereach.Method) error {
	if m.Persistable() {
		return nil
	}
	var saveable []string
	for _, name := range rangereach.MethodNames() {
		if p, _ := rangereach.ParseMethod(name); p.Persistable() {
			saveable = append(saveable, name)
		}
	}
	return fmt.Errorf("-save-index: %v has no save format (saveable methods: %s)", m, strings.Join(saveable, ", "))
}

// printStats pretty-prints the EXPLAIN profile: the method, the
// non-zero work counters, and the stage timing breakdown.
func printStats(qs rangereach.QueryStats) {
	fmt.Printf("  method           %s\n", qs.Method)
	rows := []struct {
		name string
		v    int64
	}{
		{"labels inspected", qs.Labels},
		{"index nodes", qs.IndexNodes},
		{"index leaves", qs.IndexLeaves},
		{"index entries", qs.IndexEntries},
		{"overlay entries", qs.OverlayEntries},
		{"candidates", qs.Candidates},
		{"reach probes", qs.ReachProbes},
		{"graph visited", qs.GraphVisited},
		{"enumerated", qs.Enumerated},
		{"member tests", qs.Members},
	}
	for _, row := range rows {
		if row.v != 0 {
			fmt.Printf("  %-16s %d\n", row.name, row.v)
		}
	}
	for _, st := range qs.Stages {
		fmt.Printf("  stage %-10s %v\n", st.Stage, st.Duration)
	}
	if qs.Plan != nil {
		fmt.Printf("  plan=%s\n", qs.Plan.Method)
	}
}

// ---- remote mode (-target) ----

// runRemote answers -q or -batch against a running server.
func runRemote(target, query, batch string, doTrace, explain bool) {
	client := &http.Client{Timeout: 30 * time.Second}
	run := func(line string) error {
		v, r, err := parseQuery(line)
		if err != nil {
			return err
		}
		if explain {
			return explainRemote(client, target, v, r)
		}
		return queryRemote(client, target, v, r, doTrace)
	}
	switch {
	case query != "":
		if err := run(query); err != nil {
			fmt.Fprintf(os.Stderr, "rrquery: %v\n", err)
			os.Exit(1)
		}
	case batch != "":
		f, err := os.Open(batch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rrquery: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if err := run(line); err != nil {
				fmt.Fprintf(os.Stderr, "rrquery: line %d: %v\n", lineNo, err)
				os.Exit(1)
			}
		}
		if err := sc.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "rrquery: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "rrquery: need -q or -batch")
		os.Exit(2)
	}
}

func queryRemote(client *http.Client, target string, v int, r rangereach.Rect, doTrace bool) error {
	body, err := json.Marshal(httpjson.QueryRequest{
		Vertex: v, Region: [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY},
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, target+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	var tid string
	if doTrace {
		tid = trace.NewTraceID()
		req.Header.Set(trace.TraceparentHeader, trace.FormatTraceparent(tid, trace.NewSpanID()))
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	// rrrouter's reply; rrserve's decodes into it too, with no shards.
	var qr httpjson.RouterQueryReply
	if err := json.Unmarshal(data, &qr); err != nil {
		return fmt.Errorf("bad response %q: %v", data, err)
	}
	extra := ""
	if qr.Shards > 0 {
		extra = fmt.Sprintf("  [%d shards]", qr.Shards)
	}
	fmt.Printf("RangeReach(%d, [%g,%g]x[%g,%g]) = %v  (%v)%s\n",
		v, r.MinX, r.MaxX, r.MinY, r.MaxY, qr.Reachable, time.Since(start).Round(time.Microsecond), extra)
	if !doTrace {
		return nil
	}
	if tr, err := fetchTrace(client, target, tid); err == nil {
		printClusterTrace(tr)
		return nil
	}
	// A single rrserve target has no /v1/trace endpoint but returns its
	// stats inline on traced requests.
	var sr httpjson.ServerQueryReply
	var qs rangereach.QueryStats
	if json.Unmarshal(data, &sr) == nil && sr.Stats != nil && json.Unmarshal(sr.Stats, &qs) == nil {
		fmt.Printf("trace %s (shard-local stats; target has no /v1/trace)\n", tid)
		printStats(qs)
		return nil
	}
	return fmt.Errorf("trace %s not retrievable from %s", tid, target)
}

// explainRemote asks an rrserve for the query's execution profile
// (GET /v1/explain) and prints it like a local -explain. Against a
// -dynamic server the profile is the published snapshot's: its label
// interval and overlay counts show how far updates have degraded it.
func explainRemote(client *http.Client, target string, v int, r rangereach.Rect) error {
	var er httpjson.ExplainReply
	var qs rangereach.QueryStats
	if err := httpjson.Fetch(client, target+"/v1/explain?"+url.Values{
		"vertex": {strconv.Itoa(v)},
		"region": {fmt.Sprintf("%g,%g,%g,%g", r.MinX, r.MinY, r.MaxX, r.MaxY)},
	}.Encode(), &er); err != nil {
		return err
	}
	if err := json.Unmarshal(er.Stats, &qs); err != nil {
		return fmt.Errorf("bad stats %q: %v", er.Stats, err)
	}
	fmt.Printf("RangeReach(%d, [%g,%g]x[%g,%g]) = %v  (%v)\n",
		v, r.MinX, r.MaxX, r.MinY, r.MaxY, er.Reachable, qs.Duration)
	printStats(qs)
	return nil
}

// fetchTrace pulls /v1/trace/{id}, retrying briefly: early-exit traces
// are finished asynchronously after the response is written.
func fetchTrace(client *http.Client, target, id string) (*trace.ClusterTrace, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		var tr trace.ClusterTrace
		err := httpjson.Fetch(client, target+"/v1/trace/"+id, &tr)
		if err == nil {
			return &tr, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// printClusterTrace renders a stitched trace, one greppable line per
// span plus each shard's engine counters.
func printClusterTrace(tr *trace.ClusterTrace) {
	fmt.Printf("trace %s endpoint=%s status=%d reason=%s duration=%v spans=%d\n",
		tr.TraceID, tr.Endpoint, tr.Status, tr.Reason,
		time.Duration(tr.DurationNS).Round(time.Microsecond), len(tr.Spans))
	for _, sp := range tr.Spans {
		shard := "-"
		if sp.Shard != trace.NoShard {
			shard = strconv.Itoa(sp.Shard)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "  span name=%s tier=%s shard=%s start=%v dur=%v",
			sp.Name, sp.Tier, shard,
			time.Duration(sp.StartNS).Round(time.Microsecond),
			time.Duration(sp.DurationNS).Round(time.Microsecond))
		if sp.Err != "" {
			fmt.Fprintf(&b, " err=%q", sp.Err)
		}
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, sp.Attrs[k])
		}
		fmt.Println(b.String())
		if len(sp.Stats) > 0 {
			var qs rangereach.QueryStats
			if err := json.Unmarshal(sp.Stats, &qs); err == nil {
				printShardStats(qs)
			}
		}
	}
}

// printShardStats is the compact one-line-per-fact stats rendering
// under a shard_call span.
func printShardStats(qs rangereach.QueryStats) {
	var b strings.Builder
	fmt.Fprintf(&b, "    stats method=%s engine=%v", qs.Method, qs.Duration.Round(time.Microsecond))
	if qs.CacheHit {
		b.WriteString(" cache_hit=true")
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"labels", qs.Labels}, {"index_nodes", qs.IndexNodes},
		{"index_leaves", qs.IndexLeaves}, {"index_entries", qs.IndexEntries},
		{"overlay_entries", qs.OverlayEntries},
		{"candidates", qs.Candidates}, {"reach_probes", qs.ReachProbes},
		{"graph_visited", qs.GraphVisited}, {"enumerated", qs.Enumerated},
		{"members", qs.Members},
	} {
		if c.v != 0 {
			fmt.Fprintf(&b, " %s=%d", c.name, c.v)
		}
	}
	for _, st := range qs.Stages {
		fmt.Fprintf(&b, " stage.%s=%v", st.Stage, st.Duration.Round(time.Microsecond))
	}
	fmt.Println(b.String())
}

func parseQuery(s string) (int, rangereach.Rect, error) {
	fields := strings.Fields(s)
	if len(fields) != 5 {
		return 0, rangereach.Rect{}, fmt.Errorf("want `vertex xmin ymin xmax ymax`, got %q", s)
	}
	v, err := strconv.Atoi(fields[0])
	if err != nil {
		return 0, rangereach.Rect{}, fmt.Errorf("bad vertex %q", fields[0])
	}
	var coords [4]float64
	for i, f := range fields[1:] {
		coords[i], err = strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, rangereach.Rect{}, fmt.Errorf("bad coordinate %q", f)
		}
	}
	return v, rangereach.NewRect(coords[0], coords[1], coords[2], coords[3]), nil
}

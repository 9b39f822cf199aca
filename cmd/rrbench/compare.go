package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// compareReport is the subset of the rrbench -json schema the regression
// gate reads. It parses every schema since rrbench/v1 — the fields here
// have only ever been added to.
type compareReport struct {
	Schema   string `json:"schema"`
	Datasets []struct {
		Name    string `json:"name"`
		Methods []struct {
			Method    string  `json:"method"`
			P50Micros float64 `json:"p50_us"`
		} `json:"methods"`
	} `json:"datasets"`
	ColdStart []struct {
		Dataset    string  `json:"dataset"`
		Method     string  `json:"method"`
		Mode       string  `json:"mode"`
		LoadMillis float64 `json:"load_ms"`
	} `json:"cold_start"`
}

func loadCompareReport(path string) (compareReport, error) {
	var r compareReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %v", path, err)
	}
	if !strings.HasPrefix(r.Schema, "rrbench/v") {
		return r, fmt.Errorf("%s: unrecognized schema %q", path, r.Schema)
	}
	return r, nil
}

// p50Table flattens a report to (dataset, method) → p50 µs.
func p50Table(r compareReport) map[string]float64 {
	t := make(map[string]float64)
	for _, ds := range r.Datasets {
		for _, m := range ds.Methods {
			t[ds.Name+"/"+m.Method] = m.P50Micros
		}
	}
	return t
}

// runCompare is the bench-regression gate: it compares per-method p50
// latencies of one or more candidate runs against a committed baseline
// and fails (exit 1) only on order-of-magnitude regressions — a
// candidate must exceed factor× the baseline AND the absolute noise
// floor to count. Taking the min across candidate runs filters one-off
// scheduler spikes; the floor filters jitter on sub-floor latencies,
// which dominate small smoke configs. Methods present only on one side
// are skipped: the gate must survive methods being added or retired.
func runCompare(baselinePath string, candidatePaths []string, factor, floorUs float64) int {
	if len(candidatePaths) == 0 {
		fmt.Fprintln(os.Stderr, "rrbench: -compare needs candidate report paths as arguments")
		return 2
	}
	base, err := loadCompareReport(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrbench: baseline: %v\n", err)
		return 2
	}
	baseP50 := p50Table(base)

	// Best (minimum) p50 per key across all candidate runs.
	candP50 := make(map[string]float64)
	for _, path := range candidatePaths {
		cand, err := loadCompareReport(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rrbench: candidate: %v\n", err)
			return 2
		}
		for key, p50 := range p50Table(cand) {
			if prev, ok := candP50[key]; !ok || p50 < prev {
				candP50[key] = p50
			}
		}
	}

	compared, regressed := 0, 0
	for key, cand := range candP50 {
		baseV, ok := baseP50[key]
		if !ok {
			continue
		}
		compared++
		if cand > baseV*factor && cand > baseV+floorUs {
			regressed++
			fmt.Fprintf(os.Stderr, "REGRESSION %s: p50 %.2fµs vs baseline %.2fµs (>%.1fx, floor %.0fµs)\n",
				key, cand, baseV, factor, floorUs)
		}
	}
	regressed += coldStartGate(candidatePaths)
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "rrbench: -compare matched no (dataset, method) rows — wrong baseline?")
		return 2
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "rrbench: %d/%d rows regressed beyond %.1fx\n", regressed, compared, factor)
		return 1
	}
	fmt.Printf("rrbench: no regressions in %d rows (threshold %.1fx, floor %.0fµs)\n", compared, factor, floorUs)
	return 0
}

// Cold-start gate thresholds: the mmap open of an index file must not
// cost more than coldStartFactor× its streaming decode plus the
// coldStartFloorMs noise floor. The decode path reads and rebuilds
// every structure while the mmap path only maps the file and validates
// section headers, so mmap slower than 10× decode (beyond jitter on
// millisecond-scale smoke files) means the zero-copy path started
// re-materializing — exactly the regression the format is meant to
// prevent. The candidate report carries both modes for the same file,
// so this gate is self-contained and needs no baseline row.
const (
	coldStartFactor  = 10.0
	coldStartFloorMs = 50.0
)

// coldStartGate checks every candidate's cold_start rows and returns
// the number of (dataset, method) pairs whose mmap open exceeded the
// decode-relative threshold in all candidate runs (taking the best
// mmap and worst decode across runs mirrors the p50 gate's noise
// filtering). Reports without a cold_start section pass vacuously —
// pre-v5 baselines and reduced runs must not fail the gate.
func coldStartGate(candidatePaths []string) int {
	bestMmap := make(map[string]float64)
	worstDecode := make(map[string]float64)
	for _, path := range candidatePaths {
		cand, err := loadCompareReport(path)
		if err != nil {
			continue // already surfaced by the p50 pass
		}
		for _, row := range cand.ColdStart {
			key := row.Dataset + "/" + row.Method
			switch row.Mode {
			case "mmap":
				if prev, ok := bestMmap[key]; !ok || row.LoadMillis < prev {
					bestMmap[key] = row.LoadMillis
				}
			case "decode":
				if prev, ok := worstDecode[key]; !ok || row.LoadMillis > prev {
					worstDecode[key] = row.LoadMillis
				}
			}
		}
	}
	failed := 0
	for key, mmapMs := range bestMmap {
		decodeMs, ok := worstDecode[key]
		if !ok {
			continue
		}
		if limit := decodeMs*coldStartFactor + coldStartFloorMs; mmapMs > limit {
			failed++
			fmt.Fprintf(os.Stderr, "COLD-START REGRESSION %s: mmap open %.2fms vs decode load %.2fms (limit %.2fms)\n",
				key, mmapMs, decodeMs, limit)
		}
	}
	return failed
}

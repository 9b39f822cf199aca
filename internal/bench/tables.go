package bench

import (
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/labeling"
)

// Table3 prints the dataset characteristics table.
func (s *Suite) Table3() []dataset.Stats {
	s.printf("\n== Table 3: dataset characteristics ==\n")
	s.printf("%-16s %10s %10s %12s %10s %12s %10s %10s %14s\n",
		"dataset", "#users", "#venues", "#checkins", "|V|", "|E|", "|P|", "#SCCs", "largest SCC")
	var out []dataset.Stats
	for _, net := range s.nets {
		st := net.ComputeStats()
		out = append(out, st)
		s.printf("%-16s %10d %10d %12d %10d %12d %10d %10d %14d\n",
			st.Name, st.Users, st.Venues, st.Checkins,
			st.Vertices, st.Edges, st.Points, st.SCCs, st.LargestSCC)
	}
	return out
}

// IndexCostRow is one dataset's costs for every method, with the
// MBR-based variant in parentheses where it exists (Tables 4 and 5).
type IndexCostRow struct {
	Dataset string
	// Bytes[method] and MBRBytes[method]; MBRBytes holds only the
	// methods of mbrReach.
	Bytes, MBRBytes     map[core.Method]int64
	BuildNS, MBRBuildNS map[core.Method]int64
}

// Table4And5 builds every library engine, and the MBR arm of each
// SpaReach method, and prints the index-size (Table 4) and
// indexing-time (Table 5) tables.
func (s *Suite) Table4And5() []IndexCostRow {
	var rows []IndexCostRow
	for ds := range s.nets {
		row := IndexCostRow{
			Dataset:    s.nets[ds].Name,
			Bytes:      make(map[core.Method]int64),
			MBRBytes:   make(map[core.Method]int64),
			BuildNS:    make(map[core.Method]int64),
			MBRBuildNS: make(map[core.Method]int64),
		}
		for _, m := range core.AllMethods {
			res := s.engine(ds, m)
			row.Bytes[m] = res.Bytes
			row.BuildNS[m] = res.BuildTime.Nanoseconds()
			if build, ok := mbrReach[m]; ok {
				arm, t := buildMBRArm(s.preps[ds], build, s.cfg.Parallelism)
				row.MBRBytes[m] = arm.MemoryBytes()
				row.MBRBuildNS[m] = t.Nanoseconds()
			}
		}
		rows = append(rows, row)
	}

	s.printf("\n== Table 4: index size (MBR-based variant in parentheses) ==\n")
	s.printHeader()
	for _, row := range rows {
		s.printf("%-16s", row.Dataset)
		for _, m := range core.AllMethods {
			cell := fmtBytes(row.Bytes[m])
			if b, ok := row.MBRBytes[m]; ok {
				cell += " (" + fmtBytes(b) + ")"
			}
			s.printf(" %-22s", cell)
		}
		s.printf("\n")
	}

	s.printf("\n== Table 5: indexing time (MBR-based variant in parentheses) ==\n")
	s.printHeader()
	for _, row := range rows {
		s.printf("%-16s", row.Dataset)
		for _, m := range core.AllMethods {
			cell := fmtDuration(asDuration(row.BuildNS[m]))
			if ns, ok := row.MBRBuildNS[m]; ok {
				cell += " (" + fmtDuration(asDuration(ns)) + ")"
			}
			s.printf(" %-22s", cell)
		}
		s.printf("\n")
	}
	return rows
}

func (s *Suite) printHeader() {
	s.printf("%-16s", "dataset")
	for _, m := range core.AllMethods {
		s.printf(" %-22s", m.String())
	}
	s.printf("\n")
}

// LabelStatsRow is one dataset's interval-labeling statistics (Table 6).
type LabelStatsRow struct {
	Dataset                        string
	Uncompressed, Compressed       int64
	RevUncompressed, RevCompressed int64
}

// Table6 prints the label counts of the forward and reversed schemes,
// uncompressed and compressed.
func (s *Suite) Table6() []LabelStatsRow {
	s.printf("\n== Table 6: interval-based labeling stats ==\n")
	s.printf("%-16s %16s %16s %20s %18s\n",
		"dataset", "uncompressed", "compressed", "rev-uncompressed", "rev-compressed")
	var rows []LabelStatsRow
	for ds := range s.nets {
		fwd := labeling.Build(s.preps[ds].DAG, labeling.Options{})
		rev := labeling.Build(s.preps[ds].DAG.Reverse(), labeling.Options{})
		row := LabelStatsRow{
			Dataset:         s.nets[ds].Name,
			Uncompressed:    fwd.UncompressedCount,
			Compressed:      fwd.CompressedCount,
			RevUncompressed: rev.UncompressedCount,
			RevCompressed:   rev.CompressedCount,
		}
		rows = append(rows, row)
		s.printf("%-16s %16d %16d %20d %18d\n",
			row.Dataset, row.Uncompressed, row.Compressed,
			row.RevUncompressed, row.RevCompressed)
	}
	return rows
}

// AblationForest compares DFS- and BFS-grown spanning forests by label
// counts (the paper's §8 future-work question about forest shape).
func (s *Suite) AblationForest() {
	s.printf("\n== Ablation: spanning-forest policy (compressed label count) ==\n")
	s.printf("%-16s %14s %14s\n", "dataset", "DFS forest", "BFS forest")
	for ds := range s.nets {
		dfs := labeling.Build(s.preps[ds].DAG, labeling.Options{Forest: graph.ForestDFS})
		bfs := labeling.Build(s.preps[ds].DAG, labeling.Options{Forest: graph.ForestBFS})
		s.printf("%-16s %14d %14d\n", s.nets[ds].Name, dfs.CompressedCount, bfs.CompressedCount)
	}
}

func asDuration(ns int64) time.Duration { return time.Duration(ns) }

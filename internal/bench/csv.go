package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
)

// WriteFiguresCSV writes figure series in tidy long format —
// one row per (dataset, x-axis, x, method, policy) — for downstream
// plotting:
//
//	figure,dataset,xaxis,x,method,policy,avg_ns
func WriteFiguresCSV(w io.Writer, figures map[string][]FigureResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"figure", "dataset", "xaxis", "x", "method", "policy", "avg_ns"}); err != nil {
		return fmt.Errorf("bench: writing csv header: %w", err)
	}
	names := make([]string, 0, len(figures))
	for name := range figures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, fr := range figures[name] {
			for _, series := range fr.Series {
				for _, label := range fr.Labels {
					row := []string{
						name, fr.Dataset, fr.XAxis, label,
						series.Method.String(), series.Policy,
						fmt.Sprintf("%d", series.Points[label].Nanoseconds()),
					}
					if err := cw.Write(row); err != nil {
						return fmt.Errorf("bench: writing csv row: %w", err)
					}
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

package bench

import "slices"

// experiment is one row of rrbench's -exp table: the names that select
// it and what it runs.
type experiment struct {
	names []string
	run   func(*Suite)
}

// experiments is the -exp table, in the order -exp all runs it. Tables
// 4 and 5 come from the same builds, so one row answers to both names.
var experiments = []experiment{
	{[]string{"table3"}, func(s *Suite) { s.Table3() }},
	{[]string{"table4", "table5"}, func(s *Suite) { s.Table4And5() }},
	{[]string{"table6"}, func(s *Suite) { s.Table6() }},
	{[]string{"fig5"}, func(s *Suite) { s.figures["fig5"] = s.Figure5() }},
	{[]string{"fig6"}, func(s *Suite) { s.figures["fig6"] = s.Figure6() }},
	{[]string{"fig7"}, func(s *Suite) { s.figures["fig7"] = s.Figure7() }},
	{[]string{"ablation-forest"}, (*Suite).AblationForest},
	{[]string{"ablation-compression"}, (*Suite).AblationCompression},
	{[]string{"ablation-spareach"}, (*Suite).AblationSpaReach},
	{[]string{"ablation-3d"}, (*Suite).Ablation3DIndex},
	{[]string{"ablation-streaming"}, (*Suite).AblationStreaming},
	{[]string{"negative"}, (*Suite).NegativeProfile},
	{[]string{"update-churn"}, func(s *Suite) { s.UpdateChurn() }},
}

// ExperimentNames lists every name Run accepts, "all" first.
func ExperimentNames() []string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.names...)
	}
	return names
}

// Run runs the named experiment, or with "all" every experiment in
// table order followed by the workload positive-answer rates. A name
// outside ExperimentNames runs nothing.
func (s *Suite) Run(name string) {
	for _, e := range experiments {
		if name == "all" || slices.Contains(e.names, name) {
			e.run(s)
		}
	}
	if name == "all" {
		s.PositiveRates()
	}
}

// Figures returns the figure series the experiments run so far
// produced, keyed by experiment name (fig5, fig6, fig7).
func (s *Suite) Figures() map[string][]FigureResult { return s.figures }

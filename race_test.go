//go:build race

package rangereach_test

// raceEnabled is set when the tests run under -race, whose
// instrumentation allocates.
func init() { raceEnabled = true }

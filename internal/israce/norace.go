//go:build !race

// Package israce tells tests whether the race detector is on. Its
// instrumentation allocates, so exact allocation-count assertions
// (testing.AllocsPerRun guards) skip themselves when Enabled.
package israce

// Enabled reports that the binary was built with the race detector.
const Enabled = false

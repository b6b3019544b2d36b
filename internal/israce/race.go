//go:build race

package israce

// Enabled reports that the binary was built with the race detector.
const Enabled = true

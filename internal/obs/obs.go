// Package obs is the virtual-time observability subsystem for the simulated
// Bridge system: causally-linked op spans, per-op-kind latency histograms,
// sampled gauges, a typed metrics registry, and deterministic exporters
// (Chrome trace_event JSON and a plain-text per-node report).
//
// Everything in this package is measured in virtual time. There is no wall
// clock anywhere: timestamps are the simulation's time.Duration offsets, and
// identifiers are allocated sequentially under a mutex, which is
// deterministic because the virtual scheduler runs one process at a time.
// Two runs with the same seed therefore produce byte-identical exports —
// the property the chaos replay tests and the CI trace-diff job rely on.
//
// The package depends only on the standard library so every layer
// (msg, disk, lfs, core, bridge) can import it without cycles.
package obs

import "time"

// TraceID identifies one client operation end to end. Every message and
// span caused by that operation carries the same TraceID. Zero means
// "untraced".
type TraceID uint64

// SpanID identifies one span within a recorder. Zero means "no span" and is
// used as the parent of root spans.
type SpanID uint64

// Config configures a Recorder and the facade's gauge sampler.
type Config struct {
	// SpanCap bounds the number of retained spans and, separately, of
	// retained events and of gauge samples. Spans started beyond the cap
	// are counted (and their lifecycle still tracked) but their payload is
	// dropped; events and samples beyond it are only counted. Default
	// 1<<18.
	SpanCap int
	// SampleEvery is the virtual-time interval at which per-node gauges
	// (queue depth, disk utilization) are sampled. Default 250ms.
	SampleEvery time.Duration
}

// WithDefaults returns the config with zero fields defaulted.
func (c Config) WithDefaults() Config {
	if c.SpanCap == 0 {
		c.SpanCap = 1 << 18
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 250 * time.Millisecond
	}
	return c
}

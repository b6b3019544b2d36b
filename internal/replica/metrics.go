package replica

import (
	"fmt"

	"bridge/internal/core"
	"bridge/internal/obs"
)

// stripeMetrics are the counters a scheme's handles report into. Every
// handle over one network shares one registry, so they aggregate into the
// same metrics; a handle resolves them once, when it is created or opened.
type stripeMetrics struct {
	parityWrites     obs.Counter
	degradedWrites   obs.Counter
	reconstructions  obs.Counter
	readRepairs      obs.Counter
	readRepairBlocks obs.Counter
	rebuiltData      obs.Counter
	rebuiltParity    obs.Counter
	diverts          obs.Counter
	overflowBlocks   obs.Counter
}

// RegisterMetrics registers the replica layer's metric descriptions on r
// without touching any values. Normal operation registers them when the
// first handle is made; documentation generation calls this to see the
// full set.
func RegisterMetrics(r *obs.Registry) {
	for _, scheme := range []string{"mirror", "parity", "RS"} {
		newMetrics(r, scheme)
	}
}

// newMetrics resolves the counters of scheme ("mirror", "parity" or "RS").
func newMetrics(r *obs.Registry, scheme string) stripeMetrics {
	met := stripeMetrics{
		readRepairBlocks: r.Counter("bridge.readrepair_blocks", "blocks", "Total blocks repaired on read across all replica schemes."),
		diverts:          r.Counter("replica.degraded_copies", "copies", "Constituent files (a mirror copy, a data file or a column) that opened a gap after a node failure."),
		overflowBlocks:   r.Counter("replica.overflow_blocks", "blocks", "Blocks diverted to overflow files during degraded appends."),
	}
	switch scheme {
	case "mirror":
		met.reconstructions = r.Counter("bridge.mirror_fallback_reads", "blocks", "Mirror reads served from the shadow copy because the primary's block was unreachable or corrupt.")
		met.readRepairs = r.Counter("bridge.readrepair_mirror", "repairs", "Corrupt blocks rewritten in place from the healthy mirror copy.")
		met.rebuiltData = r.Counter("replica.resilvered_blocks", "blocks", "Blocks a mirror rebuild rewrote: restored from the other copy, or folded back from an overflow file.")
		met.rebuiltParity = met.rebuiltData
	case "parity":
		met.degradedWrites = r.Counter("replica.parity_degraded_writes", "stripes", "Parity stripes left stale by a degraded append.")
		met.reconstructions = r.Counter("bridge.parity_reconstructions", "blocks", "Data blocks decoded from the rest of a parity stripe.")
		met.readRepairs = r.Counter("bridge.readrepair_parity", "repairs", "Corrupt blocks rewritten in place from parity reconstruction.")
		met.rebuiltData = r.Counter("replica.rebuilt_blocks", "blocks", "Data blocks a parity rebuild rewrote: reconstructed, or folded back from an overflow file.")
		met.rebuiltParity = r.Counter("replica.parity_rebuilt", "blocks", "Parity blocks a rebuild recomputed or folded back from an overflow file.")
	default:
		met.parityWrites = r.Counter("bridge.rs_parity_writes", "cells", "Parity cells written by Reed–Solomon appends, one per cell that landed.")
		met.degradedWrites = r.Counter("bridge.rs_degraded_writes", "stripes", "Reed–Solomon stripes left stale by a degraded append.")
		met.reconstructions = r.Counter("bridge.rs_reconstructions", "blocks", "Data blocks decoded from k surviving cells of a Reed–Solomon stripe.")
		met.readRepairs = r.Counter("bridge.rs_readrepairs", "repairs", "Corrupt blocks rewritten in place from Reed–Solomon reconstruction.")
		met.rebuiltData = r.Counter("bridge.rs_rebuilt", "cells", "Data and parity cells rewritten by a Reed–Solomon rebuild.")
		met.rebuiltParity = met.rebuiltData
	}
	return met
}

// emit records a replica-layer event on the network's recorder, if any.
func emit(c *core.Client, kind, format string, args ...any) {
	if r := c.Msg().Net().Recorder(); r != nil {
		r.Event(c.Msg().Proc().Now(), 0, kind, fmt.Sprintf(format, args...))
	}
}

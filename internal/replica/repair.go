// Online repair for the replica layer: degraded mirror appends, mirror
// resilvering, and parity rebuild. Repair runs through the ordinary Bridge
// client interface — the file stays readable throughout, with reads served
// from whichever copy (or reconstruction) is reachable.
//
// The recovery model matches the simulated crash semantics: a restarted
// node's data blocks survive (writes are write-through) but any file
// metadata it had not synced reverts, so a suffix of each local file may
// be missing. Repair therefore verifies blocks in ascending order and
// rewrites the losses, which keeps every LFS-level write sequential — the
// invariant Bridge appends require.
package replica

import (
	"errors"
	"fmt"

	"bridge/internal/core"
	"bridge/internal/distrib"
	"bridge/internal/obs"
)

// metrics are the replica layer's typed metric handles. Every handle over
// one network shares one registry, so they aggregate into the same metrics;
// a handle resolves them once, when it is created or opened.
type metrics struct {
	degradedCopies        obs.Counter
	overflowBlocks        obs.Counter
	resilveredBlocks      obs.Counter
	mirrorFallbackReads   obs.Counter
	parityDegradedWrites  obs.Counter
	parityReconstructions obs.Counter
	rebuiltBlocks         obs.Counter
	parityRebuilt         obs.Counter
	readRepairMirror      obs.Counter
	readRepairParity      obs.Counter
	readRepairBlocks      obs.Counter
	rsParityWrites        obs.Counter
	rsDegradedWrites      obs.Counter
	rsReconstructions     obs.Counter
	rsReadRepairs         obs.Counter
	rsRebuilt             obs.Counter
}

// RegisterMetrics registers the replica layer's metric descriptions on r
// without touching any values. Normal operation registers them when the
// first handle is made; documentation generation calls this to see the
// full set.
func RegisterMetrics(r *obs.Registry) { newMetrics(r) }

// metricsOn resolves the handles on the registry of c's network.
func metricsOn(c *core.Client) metrics { return newMetrics(c.Msg().Net().Stats().Registry()) }

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		degradedCopies:        r.Counter("replica.degraded_copies", "copies", "Mirror copies that opened a gap after a node failure."),
		overflowBlocks:        r.Counter("replica.overflow_blocks", "blocks", "Blocks diverted to overflow files during degraded appends."),
		resilveredBlocks:      r.Counter("replica.resilvered_blocks", "blocks", "Blocks rewritten while resilvering a mirror copy."),
		mirrorFallbackReads:   r.Counter("bridge.mirror_fallback_reads", "blocks", "Mirror reads served from the shadow copy because the primary's block was unreachable or corrupt."),
		parityDegradedWrites:  r.Counter("replica.parity_degraded_writes", "stripes", "Parity stripes left stale by a degraded append."),
		parityReconstructions: r.Counter("bridge.parity_reconstructions", "blocks", "Data blocks decoded from the rest of a parity stripe."),
		rebuiltBlocks:         r.Counter("replica.rebuilt_blocks", "blocks", "Data blocks reconstructed during a parity rebuild."),
		parityRebuilt:         r.Counter("replica.parity_rebuilt", "blocks", "Parity blocks recomputed during a rebuild."),
		readRepairMirror:      r.Counter("bridge.readrepair_mirror", "repairs", "Corrupt blocks rewritten in place from the healthy mirror copy."),
		readRepairParity:      r.Counter("bridge.readrepair_parity", "repairs", "Corrupt blocks rewritten in place from parity reconstruction."),
		readRepairBlocks:      r.Counter("bridge.readrepair_blocks", "blocks", "Total blocks repaired on read across all replica schemes."),
		rsParityWrites:        r.Counter("bridge.rs_parity_writes", "cells", "Parity cells written by Reed–Solomon appends, one per cell that landed."),
		rsDegradedWrites:      r.Counter("bridge.rs_degraded_writes", "stripes", "Reed–Solomon stripes left stale by a degraded append."),
		rsReconstructions:     r.Counter("bridge.rs_reconstructions", "blocks", "Data blocks decoded from k surviving cells of a Reed–Solomon stripe."),
		rsReadRepairs:         r.Counter("bridge.rs_readrepairs", "repairs", "Corrupt blocks rewritten in place from Reed–Solomon reconstruction."),
		rsRebuilt:             r.Counter("bridge.rs_rebuilt", "cells", "Data and parity cells rewritten by a Reed–Solomon rebuild."),
	}
}

// nodeFailure reports whether err means "the node is down" rather than a
// semantic failure like NoSpace or a transient stall. Only the health
// monitor's fast-fail triggers degraded writes: it is deterministic and
// cannot be confused with server slowness, so a gap never opens by
// accident. (Degraded writes therefore require health monitoring.)
func nodeFailure(err error) bool {
	return errors.Is(err, core.ErrNodeDown)
}

// emit records a replica-layer event on the network's tracer, if any.
func emit(c *core.Client, kind, format string, args ...any) {
	if t := c.Msg().Net().Tracer(); t != nil {
		t.Emitf(c.Msg().Proc().Now(), kind, format, args...)
	}
}

// locate maps the copy's block n to the file and block that hold it: from
// an open gap on, the overflow file.
func (cs *copyState) locate(n int64) (string, int64) {
	if cs.gapStart >= 0 && n >= cs.gapStart {
		return cs.ovfName, n - cs.gapStart
	}
	return cs.name, n
}

// ensureOverflow creates the overflow file of a copy with an open gap, on
// the currently healthy nodes, if it does not exist yet.
func (m *Mirror) ensureOverflow(cs *copyState) error {
	if cs.gapStart < 0 || cs.ovfName != "" {
		return nil
	}
	subset, err := m.healthySubset()
	if err != nil {
		return err
	}
	name := cs.name + ".ovf"
	spec := distrib.Spec{Kind: distrib.RoundRobin, P: len(subset)}
	if _, err := m.c.CreateSubset(name, spec, subset); err != nil {
		return fmt.Errorf("replica: creating overflow file: %w", err)
	}
	cs.ovfName = name
	return nil
}

// healthySubset returns the cluster node indices not currently Dead,
// as reported by the server's health monitor.
func (m *Mirror) healthySubset() ([]int, error) {
	states, err := m.c.Health()
	if err != nil {
		return nil, fmt.Errorf("replica: querying health: %w", err)
	}
	var subset []int
	for i, st := range states {
		if st.State != core.Dead {
			subset = append(subset, i)
		}
	}
	if len(subset) == 0 {
		return nil, fmt.Errorf("replica: no healthy nodes for overflow")
	}
	return subset, nil
}

// held is locate for a block the copy must already hold.
func (cs *copyState) held(n int64) (string, int64, error) {
	name, at := cs.locate(n)
	if name != cs.name && at >= cs.ovfLen {
		return "", 0, fmt.Errorf("replica: block %d past overflow of %s", n, cs.name)
	}
	return name, at, nil
}

// readCopy reads block n of copy i, honoring an open gap: diverted blocks
// are served from the overflow file.
func (m *Mirror) readCopy(i int, n int64) ([]byte, error) {
	name, at, err := m.cp[i].held(n)
	if err != nil {
		return nil, err
	}
	return m.c.ReadAt(name, at)
}

// writeCopy overwrites block n of copy i in place, honoring an open gap.
func (m *Mirror) writeCopy(i int, n int64, data []byte) error {
	name, at, err := m.cp[i].held(n)
	if err != nil {
		return err
	}
	return m.c.WriteAt(name, at, data)
}

// readRepair rewrites copy i's corrupt block n with the verified data just
// served from the other copy. The LFS overwrite path re-seals the block's
// checksum (rebuilding its on-disk header from verified neighbors if the
// old image cannot be trusted). Failure is not fatal to the read — the
// block stays corrupt on disk and the scrubber or the next read retries.
func (m *Mirror) readRepair(i int, n int64, data []byte, cause error) {
	if err := m.writeCopy(i, n, data); err != nil {
		emit(m.c, "replica.readrepair", "%s block %d repair failed: %v", m.cp[i].name, n, err)
		return
	}
	m.met.readRepairMirror.Add(1)
	m.met.readRepairBlocks.Add(1)
	emit(m.c, "replica.readrepair", "%s block %d rewritten from mirror (%v)", m.cp[i].name, n, cause)
}

// Resilver restores full redundancy after the failed node has been
// restarted and core.Client.RepairNode has re-registered its files. It
// verifies each copy's blocks in ascending order, rewriting any the crash
// lost from the other copy (the two copies of a block never share a node);
// for a copy with an open gap it then folds the overflow file back into
// the main copy and deletes it. The file stays readable throughout. It
// returns the number of blocks written.
func (m *Mirror) Resilver() (int64, error) {
	var repaired int64
	for i := range m.cp {
		cs := &m.cp[i]
		end := m.blocks
		if cs.gapStart >= 0 {
			end = cs.gapStart
		}
		// Phase 1: the crash reverted the node's unsynced local files, so
		// this copy's blocks on that node may be gone whether or not any
		// append degraded. Ascending verify-and-rewrite keeps the node's
		// local writes sequential.
		for b := int64(0); b < end; b++ {
			if _, err := m.c.ReadAt(cs.name, b); err == nil {
				continue
			}
			data, err := m.readCopy(1-i, b)
			if err != nil {
				return repaired, fmt.Errorf("replica: block %d lost in both copies: %w", b, err)
			}
			if err := m.c.WriteAt(cs.name, b, data); err != nil {
				return repaired, fmt.Errorf("replica: rewriting block %d: %w", b, err)
			}
			repaired++
			m.met.resilveredBlocks.Add(1)
		}
		if cs.gapStart < 0 {
			continue
		}
		// Phase 2: drain the overflow file into the main copy, in order;
		// each write is the copy's next sequential append.
		for k := int64(0); k < cs.ovfLen; k++ {
			data, err := m.c.ReadAt(cs.ovfName, k)
			if err != nil {
				return repaired, fmt.Errorf("replica: reading overflow block %d: %w", k, err)
			}
			if err := m.c.WriteAt(cs.name, cs.gapStart+k, data); err != nil {
				return repaired, fmt.Errorf("replica: restoring block %d: %w", cs.gapStart+k, err)
			}
			repaired++
			m.met.resilveredBlocks.Add(1)
		}
		if cs.ovfName != "" {
			if _, err := m.c.Delete(cs.ovfName); err != nil {
				return repaired, fmt.Errorf("replica: deleting overflow file: %w", err)
			}
		}
		emit(m.c, "replica.resilver", "%s gap [%d,%d) closed", cs.name, cs.gapStart, cs.gapStart+cs.ovfLen)
		cs.gapStart, cs.ovfName, cs.ovfLen = -1, "", 0
	}
	return repaired, nil
}

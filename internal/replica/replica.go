// Package replica addresses the paper's closing concern: "interleaved files
// (like striped files and storage arrays) are inherently intolerant of
// faults. A failure anywhere in the system is fatal; it ruins every file.
// Replication helps, but only at very high cost ... we see no obvious way
// [to use an error-correcting scheme] in a MIMD environment with
// block-level interleaving."
//
// Two schemes are provided on top of unmodified Bridge files:
//
//   - Mirror: every block is written to two Bridge files whose round-robin
//     starting nodes differ by one, so the two copies of any block always
//     live on different nodes. Reads fall back to the mirror on failure.
//     Storage cost 2x, write cost 2x — the paper's "storage capacity must
//     be doubled".
//
//   - Parity: data blocks interleave across p-1 nodes and a parity column
//     on the remaining node holds the XOR of each local stripe — the
//     single-failure-correcting scheme later popularized as RAID-4, shown
//     here to work fine with MIMD block-level interleaving. Storage cost
//     p/(p-1), write cost 2 accesses per block (the data block and the
//     stripe's parity block, side by side; see stripes.go).
package replica

import (
	"errors"
	"fmt"

	"bridge/internal/core"
	"bridge/internal/distrib"
	"bridge/internal/sim"
)

// ErrBothCopiesLost is returned when neither mirror copy is readable.
var ErrBothCopiesLost = errors.New("replica: both copies unreadable")

// ErrTooManyFailures is returned when parity reconstruction needs more than
// one missing block.
var ErrTooManyFailures = errors.New("replica: more than one constituent unreadable")

// ErrDegradedWrite is returned by Parity.Append when the data block landed
// but its parity update could not reach the parity node: the write is
// durable, redundancy is not. The stale stripe is remembered and restored
// by Rebuild.
var ErrDegradedWrite = errors.New("replica: write landed without full redundancy")

// Mirror is a 2-way replicated Bridge file. When a storage node dies,
// appends degrade — the blocked copy diverts into an overflow file on the
// surviving nodes — and reads fall back to whichever copy of the block is
// reachable; Resilver folds the overflow back once the node returns.
type Mirror struct {
	c       *core.Client
	name    string
	primary core.Meta
	shadow  core.Meta
	p       int
	blocks  int64 // logical length (both copies when healthy)
	cp      [2]copyState
	met     metrics
}

// copyState is one mirror copy's degraded-write bookkeeping. While a gap
// is open, the copy's main file ends at gapStart and blocks gapStart..
// gapStart+ovfLen-1 live in the overflow file, in order.
type copyState struct {
	name     string
	gapStart int64 // first block diverted to overflow; -1 = none
	ovfName  string
	ovfLen   int64
}

func shadowName(name string) string { return name + ".mirror" }

// CreateMirror creates the pair of files. The cluster needs at least two
// nodes for the copies to be failure-independent.
func CreateMirror(pc sim.Proc, c *core.Client, name string, p int) (*Mirror, error) {
	if p < 2 {
		return nil, fmt.Errorf("replica: mirroring needs p >= 2, got %d", p)
	}
	primary, err := c.CreateSpec(name, distrib.Spec{Kind: distrib.RoundRobin, P: p, Start: 0}, false)
	if err != nil {
		return nil, fmt.Errorf("replica: creating primary: %w", err)
	}
	shadow, err := c.CreateSpec(shadowName(name), distrib.Spec{Kind: distrib.RoundRobin, P: p, Start: 1}, false)
	if err != nil {
		return nil, fmt.Errorf("replica: creating shadow: %w", err)
	}
	m := &Mirror{c: c, name: name, primary: primary, shadow: shadow, p: p}
	m.init()
	return m, nil
}

// OpenMirror opens an existing mirrored pair.
func OpenMirror(pc sim.Proc, c *core.Client, name string) (*Mirror, error) {
	primary, err := c.Open(name)
	if err != nil {
		return nil, fmt.Errorf("replica: opening primary: %w", err)
	}
	shadow, err := c.Open(shadowName(name))
	if err != nil {
		return nil, fmt.Errorf("replica: opening shadow: %w", err)
	}
	m := &Mirror{c: c, name: name, primary: primary, shadow: shadow, p: primary.Spec.P, blocks: primary.Blocks}
	if shadow.Blocks > m.blocks {
		m.blocks = shadow.Blocks
	}
	m.init()
	return m, nil
}

func (m *Mirror) init() {
	m.cp[0] = copyState{name: m.name, gapStart: -1}
	m.cp[1] = copyState{name: shadowName(m.name), gapStart: -1}
	m.met = metricsOn(m.c)
}

// Blocks returns the mirrored file's logical length.
func (m *Mirror) Blocks() int64 { return m.blocks }

// Degraded reports whether either copy currently has an open gap.
func (m *Mirror) Degraded() bool {
	return m.cp[0].gapStart >= 0 || m.cp[1].gapStart >= 0
}

// Append writes the payload to both copies as one scatter of two positional
// writes — block n of each copy, so an Append retried after a failure
// rewrites what landed instead of appending it again. A copy whose position
// lands on a dead node degrades instead of failing: a gap opens, the block
// goes to an overflow file on the surviving nodes, and Resilver folds it
// back later.
func (m *Mirror) Append(payload []byte) error {
	n := m.blocks
	var landed [2]bool
	for {
		items := make([]core.ScatterItem, 0, 2)
		for i := range m.cp {
			if landed[i] {
				continue
			}
			if err := m.ensureOverflow(&m.cp[i]); err != nil {
				return err
			}
			name, at := m.cp[i].locate(n)
			items = append(items, core.ScatterItem{Name: name, BlockNum: at, Write: true, Data: payload})
		}
		res, err := m.c.Scatter(items)
		if err != nil {
			return fmt.Errorf("replica: appending: %w", err)
		}
		// A write that cannot start (its node is known dead) has the server
		// reject the whole scatter; one that dies in flight fails alone.
		// Either way the copy opens its gap and the next round diverts it.
		progress, at := false, 0
		var skipped error
		for i := range m.cp {
			if landed[i] {
				continue
			}
			cs := &m.cp[i]
			_, err := res.At(at)
			at++
			switch {
			case err == nil:
				landed[i], progress = true, true
				if k := n - cs.gapStart; cs.gapStart >= 0 && k >= cs.ovfLen {
					cs.ovfLen = k + 1
					m.met.overflowBlocks.Add(1)
				}
			case nodeFailure(err) && cs.gapStart < 0:
				progress = true
				cs.gapStart = n
				m.met.degradedCopies.Add(1)
				emit(m.c, "replica.degrade", "%s gap opens at block %d (%v)", cs.name, n, err)
			case errors.Is(err, core.ErrSkipped):
				skipped = err
			default:
				return fmt.Errorf("replica: appending %s: %w", [2]string{"primary", "shadow"}[i], err)
			}
		}
		if landed[0] && landed[1] {
			m.blocks++
			return nil
		}
		if !progress {
			return fmt.Errorf("replica: appending: %w", skipped)
		}
	}
}

// Read returns block n, falling back to the mirror copy if the primary's
// copy of it is unreachable. When the primary's copy failed its checksum
// (rather than its node being down), the verified mirror data is written
// back over the bad block — read-repair — before it is returned.
func (m *Mirror) Read(n int64) ([]byte, error) {
	data, err := m.readCopy(0, n)
	if err == nil {
		return data, nil
	}
	data, err2 := m.readCopy(1, n)
	if err2 == nil {
		m.met.mirrorFallbackReads.Add(1)
		if errors.Is(err, core.ErrCorrupt) {
			m.readRepair(0, n, data, err)
		}
		return data, nil
	}
	return nil, fmt.Errorf("%w: primary %v; shadow %v", ErrBothCopiesLost, err, err2)
}

// Parity is a Bridge file with a dedicated parity column: stripes whose one
// parity row is all ones, so each parity block is the XOR of its stripe.
type Parity struct{ stripes }

func parityName(name string) string { return name + ".parity" }

// CreateParity creates the data file across nodes 0..p-2 and the parity
// file on node p-1. Payloads must be full PayloadBytes blocks (parity is
// bitwise over fixed-size blocks).
func CreateParity(pc sim.Proc, c *core.Client, name string, p int) (*Parity, error) {
	if p < 3 {
		return nil, fmt.Errorf("replica: parity needs p >= 3, got %d", p)
	}
	subset := make([]int, p-1)
	for i := range subset {
		subset[i] = i
	}
	if _, err := c.CreateSubset(name, distrib.Spec{Kind: distrib.RoundRobin, P: p - 1}, subset); err != nil {
		return nil, fmt.Errorf("replica: creating data file: %w", err)
	}
	if _, err := c.CreateSubset(parityName(name), distrib.Spec{Kind: distrib.RoundRobin, P: 1}, []int{p - 1}); err != nil {
		return nil, fmt.Errorf("replica: creating parity file: %w", err)
	}
	return newParity(c, name, p, 0), nil
}

// OpenParity opens an existing parity-protected file. Both constituent
// files must be healthy at open time (the size is refreshed here and
// cached for degraded operation).
func OpenParity(pc sim.Proc, c *core.Client, name string, p int) (*Parity, error) {
	data, err := c.Open(name)
	if err != nil {
		return nil, fmt.Errorf("replica: opening data file: %w", err)
	}
	if _, err := c.Open(parityName(name)); err != nil {
		return nil, fmt.Errorf("replica: opening parity file: %w", err)
	}
	return newParity(c, name, p, data.Blocks), nil
}

func newParity(c *core.Client, name string, p int, blocks int64) *Parity {
	k := p - 1
	enc := make([][]byte, k+1)
	for i := range enc {
		enc[i] = make([]byte, k)
		if i < k {
			enc[i][i] = 1
		}
	}
	for i := range enc[k] {
		enc[k][i] = 1
	}
	met := metricsOn(c)
	return &Parity{stripes{
		c: c, name: name, cols: []string{parityName(name)}, enc: enc, k: k,
		cell: core.PayloadBytes, blocks: blocks, what: "parity",
		met: stripeMetrics{
			degradedWrites:   met.parityDegradedWrites,
			reconstructions:  met.parityReconstructions,
			readRepairs:      met.readRepairParity,
			readRepairBlocks: met.readRepairBlocks,
			rebuiltData:      met.rebuiltBlocks,
			rebuiltParity:    met.parityRebuilt,
		},
	}}
}

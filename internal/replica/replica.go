// Package replica addresses the paper's closing concern: "interleaved files
// (like striped files and storage arrays) are inherently intolerant of
// faults. A failure anywhere in the system is fatal; it ruins every file.
// Replication helps, but only at very high cost ... we see no obvious way
// [to use an error-correcting scheme] in a MIMD environment with
// block-level interleaving."
//
// Three schemes answer it on top of unmodified Bridge files, all through
// one mechanism (stripes.go): a data file plus column files that hold a
// linear code of each stripe of k data blocks.
//
//   - Mirror: k = 1 and one column, a copy of the data file placed
//     round-robin from the next node, so the two copies of a block never
//     share a node. Storage and write cost 2x — the paper's "storage
//     capacity must be doubled".
//   - Parity: data interleaved across p-1 nodes and a column on the last
//     holding the XOR of each stripe — RAID-4, shown here to work with MIMD
//     block-level interleaving. Storage cost p/(p-1).
//   - RS (rs.go): k data nodes and m Reed–Solomon columns; any m losses per
//     stripe are recoverable, at a storage cost of (k+m)/k.
//
// A read falls back to decoding the block from the rest of its stripe; an
// append whose file has a dead node diverts that file into an overflow
// file on the survivors; Rebuild restores full redundancy once the node is
// back, verifying in ascending order (a restarted node may have lost a
// suffix of each local file) so that every LFS-level write stays
// sequential, as Bridge appends require.
package replica

import (
	"errors"
	"fmt"

	"bridge/internal/core"
	"bridge/internal/distrib"
	"bridge/internal/sim"
)

// ErrTooManyFailures is returned when a block cannot be decoded: more cells
// of its stripe are unreadable than the code corrects, or its stripe is
// stale.
var ErrTooManyFailures = errors.New("replica: too many constituents unreadable")

// ErrBothCopiesLost is ErrTooManyFailures under the name a mirror read
// meets it by: neither copy of the block is readable.
var ErrBothCopiesLost = ErrTooManyFailures

// ErrDegradedWrite is returned by a Parity or RS append whose data block
// landed but one of whose column cells could not be written for a reason
// other than a dead node: the write is durable, redundancy is not. The
// stale stripe is remembered and restored by Rebuild.
var ErrDegradedWrite = errors.New("replica: write landed without full redundancy")

// Mirror is a 2-way replicated Bridge file: a stripe code with k = 1 whose
// one column, the shadow file, is a copy of the data file.
type Mirror struct{ stripes }

func shadowName(name string) string { return name + ".mirror" }

// CreateMirror creates the pair of files, the primary round-robin from node
// 0 and the shadow from node 1. The cluster needs at least two nodes for
// the copies to be failure-independent.
func CreateMirror(pc sim.Proc, c *core.Client, name string, p int) (*Mirror, error) {
	if p < 2 {
		return nil, fmt.Errorf("replica: mirroring needs p >= 2, got %d", p)
	}
	if _, err := c.CreateSpec(name, distrib.Spec{Kind: distrib.RoundRobin, P: p, Start: 0}, false); err != nil {
		return nil, fmt.Errorf("replica: creating primary: %w", err)
	}
	if _, err := c.CreateSpec(shadowName(name), distrib.Spec{Kind: distrib.RoundRobin, P: p, Start: 1}, false); err != nil {
		return nil, fmt.Errorf("replica: creating shadow: %w", err)
	}
	return newMirror(c, name), nil
}

// OpenMirror opens an existing mirrored pair, and any overflow file either
// copy was diverted to. Its length is the longer copy's.
func OpenMirror(pc sim.Proc, c *core.Client, name string) (*Mirror, error) {
	m := newMirror(c, name)
	lens, err := m.open()
	if err != nil {
		return nil, err
	}
	m.blocks = max(lens[0], lens[1])
	return m, nil
}

func newMirror(c *core.Client, name string) *Mirror {
	return &Mirror{newStripes(c, name, []string{shadowName(name)}, [][]byte{{1}, {1}}, core.PayloadBytes, "mirror")}
}

// Resilver is Rebuild under the name a mirror goes by.
func (m *Mirror) Resilver() (int64, error) { return m.Rebuild() }

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
	return newParity(c, name, p), nil
}

// OpenParity opens an existing parity-protected file, and any overflow
// file one of its files was diverted to. Both constituent files must be
// healthy at open time (the size is refreshed here and cached for degraded
// operation).
func OpenParity(pc sim.Proc, c *core.Client, name string, p int) (*Parity, error) {
	pf := newParity(c, name, p)
	if _, err := pf.open(); err != nil {
		return nil, err
	}
	return pf, nil
}

func newParity(c *core.Client, name string, p int) *Parity {
	k := p - 1
	enc := make([][]byte, k+1)
	for i := range enc {
		enc[i] = make([]byte, k)
		for j := range enc[i] {
			if i == j || i == k {
				enc[i][j] = 1
			}
		}
	}
	return &Parity{newStripes(c, name, []string{parityName(name)}, enc, core.PayloadBytes, "parity")}
}

// Reed–Solomon k+m striping on top of unmodified Bridge files: the third
// answer to the paper's fault-tolerance concern, between Mirror's 2x cost
// and Parity's single-failure limit. Data blocks interleave across k nodes
// exactly as a plain Bridge file; m parity columns on m further nodes hold
// independent GF(2^8) linear combinations of each stripe, so any m cell
// losses per stripe — node failures, crashes, or bitrot — are recoverable
// from the surviving k, at a storage cost of (k+m)/k.
package replica

import (
	"fmt"

	"bridge/internal/core"
	"bridge/internal/distrib"
	"bridge/internal/sim"
)

// RSOptions parameterizes a Reed–Solomon file.
type RSOptions struct {
	// K is the number of data cells per stripe (and data nodes). K >= 1.
	K int
	// M is the number of parity cells per stripe (and parity nodes);
	// the file survives any M simultaneous cell losses. M >= 1.
	M int
	// BlockBytes is the cell size appends must supply; the GF(256) math
	// runs over fixed-size cells. With K = 1 a payload may be shorter: a
	// one-cell stripe's cells are as long as its payload, as a mirror's
	// are. Default core.PayloadBytes.
	BlockBytes int
}

func (o *RSOptions) applyDefaults() error {
	if o.BlockBytes == 0 {
		o.BlockBytes = core.PayloadBytes
	}
	if o.K < 1 || o.M < 1 {
		return fmt.Errorf("replica: RS needs k >= 1 and m >= 1, got k=%d m=%d", o.K, o.M)
	}
	if o.K+o.M > 256 {
		return fmt.Errorf("replica: RS needs k+m <= 256 (distinct GF(256) points), got %d", o.K+o.M)
	}
	if o.BlockBytes < 1 || o.BlockBytes > core.PayloadBytes {
		return fmt.Errorf("replica: RS block size %d outside [1, %d]", o.BlockBytes, core.PayloadBytes)
	}
	return nil
}

// RS is a Reed–Solomon protected Bridge file: stripes whose m parity rows
// are independent GF(2^8) combinations.
type RS struct{ stripes }

func rsParityName(name string, j int) string { return fmt.Sprintf("%s.rs%d", name, j) }

// CreateRS creates the data file across cluster nodes 0..k-1 and one
// single-node parity file on each of nodes k..k+m-1.
func CreateRS(pc sim.Proc, c *core.Client, name string, opts RSOptions) (*RS, error) {
	if err := opts.applyDefaults(); err != nil {
		return nil, err
	}
	subset := make([]int, opts.K)
	for i := range subset {
		subset[i] = i
	}
	if _, err := c.CreateSubset(name, distrib.Spec{Kind: distrib.RoundRobin, P: opts.K}, subset); err != nil {
		return nil, fmt.Errorf("replica: creating RS data file: %w", err)
	}
	for j := 0; j < opts.M; j++ {
		spec := distrib.Spec{Kind: distrib.RoundRobin, P: 1}
		if _, err := c.CreateSubset(rsParityName(name, j), spec, []int{opts.K + j}); err != nil {
			return nil, fmt.Errorf("replica: creating RS parity file %d: %w", j, err)
		}
	}
	return newRS(c, name, opts), nil
}

// OpenRS opens an existing Reed–Solomon file, and any overflow file one of
// its files was diverted to. Every constituent file must be healthy at open
// time (the size is refreshed here and cached for
// degraded operation).
func OpenRS(pc sim.Proc, c *core.Client, name string, opts RSOptions) (*RS, error) {
	if err := opts.applyDefaults(); err != nil {
		return nil, err
	}
	rs := newRS(c, name, opts)
	if _, err := rs.open(); err != nil {
		return nil, err
	}
	return rs, nil
}

func newRS(c *core.Client, name string, opts RSOptions) *RS {
	cols := make([]string, opts.M)
	for j := range cols {
		cols[j] = rsParityName(name, j)
	}
	return &RS{newStripes(c, name, cols, rsEncodingMatrix(opts.K, opts.M), opts.BlockBytes, "RS")}
}

// StorageBlocks stats the data file and every parity column and returns
// the total blocks the file occupies — data plus parity. Dividing by
// Blocks gives the measured storage overhead: (k+m)/k asymptotically,
// against Mirror's 2x.
func (rs *RS) StorageBlocks() (int64, error) {
	var total int64
	for _, g := range rs.gaps {
		meta, err := rs.c.Stat(g.file)
		if err != nil {
			return 0, err
		}
		total += meta.Blocks
	}
	return total, nil
}

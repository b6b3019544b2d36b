package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"bridge/internal/core"
	"bridge/internal/sim"
	"bridge/internal/workload"
)

// DisorderedResult quantifies the Section 3 trade-off of disordered
// (linked-list) files against strict interleaving: appends pay for chain
// maintenance, sequential reads are comparable, random access is O(n).
type DisorderedResult struct {
	P      int
	Blocks int
	// Per-block append cost.
	AppendRR    time.Duration
	AppendChain time.Duration
	// Per-block sequential read cost (whole file).
	SeqRR    time.Duration
	SeqChain time.Duration
	// Random read of the middle block.
	RandRR    time.Duration
	RandChain time.Duration
}

// Disordered measures both file kinds on one cluster.
func Disordered(cfg Config, p int) (*DisorderedResult, error) {
	if err := cfg.prepare(p); err != nil {
		return nil, err
	}
	n := cfg.Records
	if n > 256 {
		n = 256 // random chain access is O(n) LFS reads; keep the walk sane
	}
	res := &DisorderedResult{P: p, Blocks: n}
	err := runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		recs := workload.Records(cfg.Seed, n, cfg.PayloadBytes)

		measure := func(name string, disordered bool) (app, seq, rand time.Duration, err error) {
			if disordered {
				if _, err := c.CreateDisordered(name); err != nil {
					return 0, 0, 0, err
				}
			} else {
				if _, err := c.Create(name); err != nil {
					return 0, 0, 0, err
				}
			}
			start := proc.Now()
			for _, r := range recs {
				if err := c.SeqWrite(name, r); err != nil {
					return 0, 0, 0, err
				}
			}
			app = (proc.Now() - start) / time.Duration(n)
			if _, err := c.Open(name); err != nil {
				return 0, 0, 0, err
			}
			start = proc.Now()
			for {
				_, eof, err := c.SeqRead(name)
				if err != nil {
					return 0, 0, 0, err
				}
				if eof {
					break
				}
			}
			seq = (proc.Now() - start) / time.Duration(n)
			start = proc.Now()
			if _, err := c.ReadAt(name, int64(n/2)); err != nil {
				return 0, 0, 0, err
			}
			rand = proc.Now() - start
			return app, seq, rand, nil
		}

		var err error
		if res.AppendRR, res.SeqRR, res.RandRR, err = measure("rr", false); err != nil {
			return fmt.Errorf("interleaved: %w", err)
		}
		if res.AppendChain, res.SeqChain, res.RandChain, err = measure("chain", true); err != nil {
			return fmt.Errorf("disordered: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RenderDisordered writes the A5 comparison.
func RenderDisordered(w io.Writer, r *DisorderedResult) {
	fmt.Fprintf(w, "Ablation A5: disordered (linked-list) files vs strict interleaving (p=%d, %d blocks)\n", r.P, r.Blocks)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "operation\tinterleaved\tdisordered\tratio")
	row := func(name string, a, b time.Duration) {
		fmt.Fprintf(tw, "%s\t%s\t%s\tx%.1f\n", name, fmtDur(a), fmtDur(b), float64(b)/float64(a))
	}
	row("append (per block)", r.AppendRR, r.AppendChain)
	row("sequential read (per block)", r.SeqRR, r.SeqChain)
	row(fmt.Sprintf("random read (block %d)", r.Blocks/2), r.RandRR, r.RandChain)
	tw.Flush()
	fmt.Fprintln(w, `(the paper: "arbitrary scattering of blocks at the expense of very slow random access")`)
}

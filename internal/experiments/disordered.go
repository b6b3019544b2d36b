package experiments

import (
	"fmt"
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

func disorderedReport(r *DisorderedResult, _ Config) Report {
	x := func(a, b time.Duration) string { return fmt.Sprintf("×%.1f", float64(b)/float64(a)) }
	return Report{
		Tables: []Table{{
			Caption: fmt.Sprintf("Disordered (linked-list) files against strict interleaving, %d blocks on %d nodes (Section 3):", r.Blocks, r.P),
			Header:  []string{"operation", "interleaved", "disordered", "ratio"},
			Rows: [][]string{
				{"append (per block)", fmtDur(r.AppendRR), fmtDur(r.AppendChain), x(r.AppendRR, r.AppendChain)},
				{"sequential read (per block)", fmtDur(r.SeqRR), fmtDur(r.SeqChain), x(r.SeqRR, r.SeqChain)},
				{fmt.Sprintf("random read (block %d)", r.Blocks/2), fmtDur(r.RandRR), fmtDur(r.RandChain), x(r.RandRR, r.RandChain)},
			},
		}},
		Summary: fmt.Sprintf("against interleaving, a random read costs %s, a sequential read %s, an append %s",
			x(r.RandRR, r.RandChain), x(r.SeqRR, r.SeqChain), x(r.AppendRR, r.AppendChain)),
	}
}

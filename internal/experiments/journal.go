package experiments

// The journaling experiment quantifies what crash consistency costs on the
// hot path: the same batched sequential append measured on plain volumes
// and on journaled volumes, where every metadata update is logged as a
// checksummed intent record and group-committed before the home writes go
// down. The journal's group commit exists precisely so this number stays
// small; the perf gate holds it to <=5%.

import (
	"fmt"
	"time"

	"bridge/internal/core"
	"bridge/internal/sim"
	"bridge/internal/workload"
)

// JournalOverheadPoint compares the batched append path with and without
// the write-ahead intent journal on every node's volume.
type JournalOverheadPoint struct {
	P         int
	Plain     time.Duration // per-block batched append, no journal
	Journaled time.Duration // per-block batched append, intent journal on
}

// Overhead returns the fractional slowdown journaling imposes on the
// batched write path.
func (pt JournalOverheadPoint) Overhead() float64 {
	if pt.Plain <= 0 {
		return 0
	}
	return float64(pt.Journaled-pt.Plain) / float64(pt.Plain)
}

// journalBlocksForBench sizes the per-node journal region for the
// overhead runs: comfortably above the minimum for bench-scale volumes,
// small enough not to crowd the data region.
const journalBlocksForBench = 48

// JournalOverhead measures the batched sequential append twice per
// processor count — on plain volumes, then on journaled ones.
func JournalOverhead(cfg Config) ([]JournalOverheadPoint, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	var pts []JournalOverheadPoint
	for _, p := range cfg.Ps {
		pt := JournalOverheadPoint{P: p}
		var err error
		if pt.Plain, err = measureBatchedWrite(p, cfg); err != nil {
			return nil, fmt.Errorf("journal overhead p=%d plain: %w", p, err)
		}
		jcfg := cfg
		jcfg.JournalBlocks = journalBlocksForBench
		if pt.Journaled, err = measureBatchedWrite(p, jcfg); err != nil {
			return nil, fmt.Errorf("journal overhead p=%d journaled: %w", p, err)
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// measureBatchedWrite appends cfg.Records records through AppendN in
// batches of 4p — the batched write path the tools use — and returns the
// amortized per-block cost.
func measureBatchedWrite(p int, cfg Config) (time.Duration, error) {
	var perBlock time.Duration
	err := runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		n := cfg.Records
		recs := workload.Records(cfg.Seed, n, cfg.PayloadBytes)
		if _, err := c.Create("f"); err != nil {
			return err
		}
		batch := 4 * p
		start := proc.Now()
		for i := 0; i < n; i += batch {
			end := i + batch
			if end > n {
				end = n
			}
			if _, err := c.AppendN("f", recs[i:end]); err != nil {
				return err
			}
		}
		perBlock = (proc.Now() - start) / time.Duration(n)
		return nil
	})
	return perBlock, err
}

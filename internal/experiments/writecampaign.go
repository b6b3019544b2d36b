// The PR 8 write-path campaign: group-commit write-behind versus the
// paper's synchronous per-block append, tool-mode parallel delete versus
// the server's serial per-block walk, and Reed–Solomon k+m striping
// versus mirroring. Each point boots fresh clusters per configuration
// and measures simulated time, like every other experiment here.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"bridge/internal/core"
	"bridge/internal/replica"
	"bridge/internal/sim"
	"bridge/internal/tools"
	"bridge/internal/workload"
)

// wbStripes is the write-behind depth the campaign uses: two stripes
// buffered per file, mirroring raStripes on the read side.
const wbStripes = 2

// WriteCampaignPoint is one processor count's write-path measurements.
type WriteCampaignPoint struct {
	P int

	// Sequential append, per block: the synchronous baseline against the
	// write-behind path (acknowledged from the buffer, group-committed in
	// coalesced vectored windows, drained by a final Flush).
	NaiveWritePerBlock time.Duration
	WBWritePerBlock    time.Duration

	// Whole-file delete: the server's serial per-block chain walk against
	// the tool-mode delete, where each node frees its own column locally.
	SerialDeleteTotal   time.Duration
	ParallelDeleteTotal time.Duration

	// Redundant append, per block, plus the measured storage overhead
	// (total blocks stored / data blocks): RS(k,2) with k = p-2 against
	// the 2x mirror.
	MirrorAppendPerBlock time.Duration
	RSAppendPerBlock     time.Duration
	RSK, RSM             int
	MirrorOverhead       float64
	RSOverhead           float64
}

// WriteSpeedup is the group-commit gain on sequential appends.
func (pt WriteCampaignPoint) WriteSpeedup() float64 {
	if pt.WBWritePerBlock <= 0 {
		return 0
	}
	return float64(pt.NaiveWritePerBlock) / float64(pt.WBWritePerBlock)
}

// DeleteSpeedup is the tool-mode gain on whole-file deletes.
func (pt WriteCampaignPoint) DeleteSpeedup() float64 {
	if pt.ParallelDeleteTotal <= 0 {
		return 0
	}
	return float64(pt.SerialDeleteTotal) / float64(pt.ParallelDeleteTotal)
}

// WriteCampaign measures the write-path suite across cfg.Ps.
func WriteCampaign(cfg Config) ([]WriteCampaignPoint, error) {
	return sweep(cfg, writeCampaignAt)
}

func writeCampaignAt(p int, cfg Config) (WriteCampaignPoint, error) {
	pt := WriteCampaignPoint{P: p}
	recs := workload.Records(cfg.Seed, cfg.Records, cfg.PayloadBytes)
	n := time.Duration(cfg.Records)

	// Synchronous appends and the serial delete share one boot: the
	// paper-fidelity baseline configuration.
	err := runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		start := proc.Now()
		if err := workload.Fill(proc, c, "f", recs); err != nil {
			return err
		}
		pt.NaiveWritePerBlock = (proc.Now() - start) / n
		start = proc.Now()
		if _, err := c.Delete("f"); err != nil {
			return err
		}
		pt.SerialDeleteTotal = proc.Now() - start
		return nil
	})
	if err != nil {
		return pt, err
	}

	// Write-behind appends (timed through the draining Flush, so buffered
	// blocks are not counted as free) and the tool-mode parallel delete.
	wbCfg := cfg
	wbCfg.WriteBehind = wbStripes
	err = runSim(p, wbCfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		start := proc.Now()
		if err := workload.Fill(proc, c, "f", recs); err != nil {
			return err
		}
		if _, err := c.Flush("f"); err != nil {
			return err
		}
		pt.WBWritePerBlock = (proc.Now() - start) / n
		start = proc.Now()
		if _, err := tools.Delete(proc, c, "f"); err != nil {
			return err
		}
		pt.ParallelDeleteTotal = proc.Now() - start
		return nil
	})
	if err != nil {
		return pt, err
	}

	// Redundancy: mirror and RS(p-2, 2) appends of full-block payloads,
	// with the storage overhead measured from the constituent files.
	full := workload.Records(cfg.Seed, cfg.Records, core.PayloadBytes)
	err = runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		m, err := replica.CreateMirror(proc, c, "m", p)
		if err != nil {
			return err
		}
		start := proc.Now()
		for _, rec := range full {
			if err := m.Append(rec); err != nil {
				return err
			}
		}
		pt.MirrorAppendPerBlock = (proc.Now() - start) / n
		pt.MirrorOverhead = 2
		return nil
	})
	if err != nil {
		return pt, err
	}
	pt.RSK, pt.RSM = p-2, 2
	if pt.RSK < 1 {
		return pt, nil // too few nodes for RS; leave the fields zero
	}
	err = runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		rs, err := replica.CreateRS(proc, c, "r", replica.RSOptions{K: pt.RSK, M: pt.RSM})
		if err != nil {
			return err
		}
		start := proc.Now()
		for _, rec := range full {
			if err := rs.Append(rec); err != nil {
				return err
			}
		}
		pt.RSAppendPerBlock = (proc.Now() - start) / n
		stored, err := rs.StorageBlocks()
		if err != nil {
			return err
		}
		pt.RSOverhead = float64(stored) / float64(rs.Blocks())
		return nil
	})
	return pt, err
}

// RenderWriteCampaign writes the write campaign's three tables: sequential
// appends, whole-file deletes and redundant appends, one row per p.
func RenderWriteCampaign(w io.Writer, pts []WriteCampaignPoint, records int) {
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f ms/blk", float64(d)/float64(time.Millisecond)) }
	fmt.Fprintf(w, "Sequential appends (%d-record file, write-behind windows of %d stripes, timed through the final Flush)\n", records, wbStripes)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "p\tnaive\twrite-behind\tspeedup")
	for _, pt := range pts {
		fmt.Fprintf(tw, "%d\t%s\t%.2f ms/blk\t%.1fx\n", pt.P, ms(pt.NaiveWritePerBlock),
			float64(pt.WBWritePerBlock)/float64(time.Millisecond), pt.WriteSpeedup())
	}
	tw.Flush()
	fmt.Fprintln(w, "\nWhole-file delete")
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "p\tserial\tparallel (tool)\tspeedup")
	for _, pt := range pts {
		fmt.Fprintf(tw, "%d\t%.0f ms\t%.0f ms\t%.1fx\n", pt.P, float64(pt.SerialDeleteTotal)/float64(time.Millisecond),
			float64(pt.ParallelDeleteTotal)/float64(time.Millisecond), pt.DeleteSpeedup())
	}
	tw.Flush()
	fmt.Fprintln(w, "\nRedundant appends")
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "p\tmirror\tRS(k,2)\tmirror storage\tRS storage")
	for _, pt := range pts {
		fmt.Fprintf(tw, "%d\t%s\tRS(%d,%d): %s\t%.2fx\t%.2fx\n", pt.P, ms(pt.MirrorAppendPerBlock),
			pt.RSK, pt.RSM, ms(pt.RSAppendPerBlock), pt.MirrorOverhead, pt.RSOverhead)
	}
	tw.Flush()
}

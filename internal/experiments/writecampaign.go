// The PR 8 write-path campaign: group-commit write-behind versus the
// paper's synchronous per-block append, tool-mode parallel delete versus
// the server's serial per-block walk, and Reed–Solomon k+m striping
// versus mirroring. Each point boots fresh clusters per configuration
// and measures simulated time, like every other experiment here.
package experiments

import (
	"fmt"
	"math"
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

func writeCampaignReport(pts []WriteCampaignPoint, cfg Config) Report {
	ms := func(d time.Duration, prec int) string {
		return fmt.Sprintf("%.*f ms", prec, float64(d)/float64(time.Millisecond))
	}
	x := func(f float64, prec int) string { return fmt.Sprintf("%.*f×", prec, f) }
	// span is the lowest and highest of f over the sweep.
	span := func(f func(WriteCampaignPoint) float64) string {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, pt := range pts {
			lo, hi = math.Min(lo, f(pt)), math.Max(hi, f(pt))
		}
		return x(lo, 1) + "–" + x(hi, 1)
	}
	var rs WriteCampaignPoint // RS(6,2) if the sweep reaches p = 8
	for _, pt := range pts {
		if rs.P != fixedP {
			rs = pt
		}
	}
	return Report{
		Tables: []Table{{
			Caption: fmt.Sprintf("Sequential appends, per block, %d-record file: synchronous against write-behind windows of %d stripes, timed through the final `Flush`:", cfg.Records, wbStripes),
			Header:  []string{"p", "naive", "write-behind", "speedup"},
			Rows: cells(pts, func(pt WriteCampaignPoint) []string {
				return []string{fmt.Sprint(pt.P), ms(pt.NaiveWritePerBlock, 1), ms(pt.WBWritePerBlock, 2), x(pt.WriteSpeedup(), 1)}
			}),
		}, {
			Caption: "Whole-file delete: the server's serial chain walk against the tool-mode delete:",
			Header:  []string{"p", "serial", "parallel (tool)", "speedup"},
			Rows: cells(pts, func(pt WriteCampaignPoint) []string {
				return []string{fmt.Sprint(pt.P), ms(pt.SerialDeleteTotal, 0), ms(pt.ParallelDeleteTotal, 0), x(pt.DeleteSpeedup(), 1)}
			}),
		}, {
			Caption: "Redundant appends, per block, and storage per data block: RS(p−2, 2) against the 2-way mirror:",
			Header:  []string{"p", "mirror", "RS(k,2)", "mirror storage", "RS storage"},
			Rows: cells(pts, func(pt WriteCampaignPoint) []string {
				return []string{fmt.Sprint(pt.P), ms(pt.MirrorAppendPerBlock, 1), fmt.Sprintf("RS(%d,%d): %s", pt.RSK, pt.RSM, ms(pt.RSAppendPerBlock, 1)),
					x(pt.MirrorOverhead, 2), x(pt.RSOverhead, 2)}
			}),
		}},
		Summary: fmt.Sprintf("write-behind appends %s faster, the tool-mode delete %s; RS(%d,%d) stores %s against the mirror's %s, appending at %s a block against the mirror's %s",
			span(WriteCampaignPoint.WriteSpeedup), span(WriteCampaignPoint.DeleteSpeedup),
			rs.RSK, rs.RSM, x(rs.RSOverhead, 2), x(rs.MirrorOverhead, 2), ms(rs.RSAppendPerBlock, 1), ms(rs.MirrorAppendPerBlock, 1)),
	}
}

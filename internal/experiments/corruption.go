package experiments

// The integrity experiments measure what the paper's reliability section
// argues qualitatively: silent corruption is detected by per-block
// checksums, repaired from redundancy, and the background scrubber that
// finds it costs nearly nothing on the hot read path because it only runs
// in idle disk time.

import (
	"bytes"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"bridge/internal/core"
	"bridge/internal/lfs"
	"bridge/internal/replica"
	"bridge/internal/sim"
	"bridge/internal/workload"
)

// ScrubOverheadPoint compares the batched-naive sequential read with and
// without the background scrubber enabled on every node.
type ScrubOverheadPoint struct {
	P        int
	Plain    time.Duration // per-block batched read, scrubber off
	Scrubbed time.Duration // per-block batched read, scrubber on
}

// Overhead returns the fractional slowdown the scrubber imposes on the
// batched read path (0.02 = 2% slower). Negative values are simulation
// noise from scheduling order and mean "no measurable overhead".
func (pt ScrubOverheadPoint) Overhead() float64 {
	if pt.Plain <= 0 {
		return 0
	}
	return float64(pt.Scrubbed-pt.Plain) / float64(pt.Plain)
}

// ScrubOverhead measures the batched sequential read of the standard
// workload file twice per processor count — once on a plain cluster, once
// with the default idle-time scrubber running on every node.
func ScrubOverhead(cfg Config) ([]ScrubOverheadPoint, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	if cfg.CacheBlocks == 0 {
		// Match Table 2's small cache so the "no scrub" column equals its
		// batched-naive row and the comparison is apples to apples.
		cfg.CacheBlocks = 16
	}
	var pts []ScrubOverheadPoint
	for _, p := range cfg.Ps {
		pt := ScrubOverheadPoint{P: p}
		var err error
		if pt.Plain, err = measureBatchedRead(p, cfg, nil); err != nil {
			return nil, fmt.Errorf("scrub overhead p=%d plain: %w", p, err)
		}
		if pt.Scrubbed, err = measureBatchedRead(p, cfg, &lfs.ScrubConfig{}); err != nil {
			return nil, fmt.Errorf("scrub overhead p=%d scrubbed: %w", p, err)
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// measureBatchedRead is measureTable2Batched with a configurable scrubber:
// fill the standard file, then time a SeqReadN sweep over it.
func measureBatchedRead(p int, cfg Config, scrub *lfs.ScrubConfig) (time.Duration, error) {
	bcfg := cfg
	bcfg.ReadAhead = raStripes
	bcfg.Scrub = scrub
	var perBlock time.Duration
	err := runSim(p, bcfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		n := cfg.Records
		if err := fill(proc, c, cfg, "f"); err != nil {
			return err
		}
		if _, err := c.Open("f"); err != nil {
			return err
		}
		batch := 4 * p
		start := proc.Now()
		got := 0
		for {
			blocks, eof, err := c.SeqReadN("f", batch)
			if err != nil {
				return err
			}
			got += len(blocks)
			if eof {
				break
			}
		}
		if got != n {
			return fmt.Errorf("batched read returned %d blocks, want %d", got, n)
		}
		perBlock = (proc.Now() - start) / time.Duration(n)
		return nil
	})
	return perBlock, err
}

// CorruptionPoint summarizes one corruption-recovery run: k silent
// bit-flips per node against a mirrored file, then scrub → read-repair →
// resilver → verify.
type CorruptionPoint struct {
	P        int
	Injected int           // bit-flipped blocks (k per node)
	Detected int           // checksum failures the first scrub sweep found
	Repaired int           // blocks rewritten by read-repair + resilver
	Residual int           // checksum failures left after repair (want 0)
	SweepMs  time.Duration // virtual time for one full scrub sweep of all p nodes
}

// corruptionFlips is k, the silent bit-flips injected per node.
const corruptionFlips = 2

// CorruptionRecovery injects corruptionFlips silent bit-flips per node
// under a 4p-block mirrored file, then measures the recovery pipeline at
// each processor count: a full scrub sweep (timed in virtual ms) detects
// the corruption and evicts cached clean copies; a full read pass
// read-repairs the primary copies from their mirrors; Resilver rewrites
// the corrupt mirror copies; a final sweep proves zero residual damage.
//
// The flip sites are chosen from the deterministic data-region layout of
// an interleaved mirror append stream — primary block i on node i mod p,
// shadow block i on node (i+1) mod p — so that every node is hit but no
// logical block ever loses both copies.
func CorruptionRecovery(cfg Config) ([]CorruptionPoint, error) {
	return sweep(cfg, corruptionRecoveryAt)
}

func corruptionRecoveryAt(p int, cfg Config) (CorruptionPoint, error) {
	pt := CorruptionPoint{P: p, Injected: corruptionFlips * p}
	rcfg := cfg
	rcfg.Records = 4 * p // the mirror needs three complete append rounds
	err := runSim(p, rcfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		nm := int64(rcfg.Records)
		recs := workload.Records(cfg.Seed, int(nm), core.PayloadBytes)
		m, err := replica.CreateMirror(proc, c, "mf", p)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if err := m.Append(r); err != nil {
				return err
			}
		}

		// Flip one bit in two data blocks per node. The data region fills
		// in append arrival order: node 0 receives primary(0), shadow(p-1),
		// primary(p), ...; node j>0 receives shadow(j-1), primary(j),
		// shadow(p+j-1), .... Offsets {1, 4} on node 0 and {0, 5} elsewhere
		// corrupt shadow copies of logical blocks 0..p-1 and primary copies
		// of 2p..3p-1 — every node damaged, no block losing both copies.
		for i, nd := range cl.Nodes {
			offs := []int{0, 5}
			if i == 0 {
				offs = []int{1, 4}
			}
			ds := nd.FS().DataStart()
			for _, off := range offs {
				raw, err := nd.Disk.ReadBlock(proc, ds+off)
				if err != nil {
					return fmt.Errorf("raw read node %d: %w", i, err)
				}
				raw[256] ^= 0x20
				if err := nd.Disk.WriteBlock(proc, ds+off, raw); err != nil {
					return fmt.Errorf("raw write node %d: %w", i, err)
				}
			}
		}

		// One full sweep per node, timed: detection plus cache eviction.
		start := proc.Now()
		for i := range cl.Nodes {
			rep, err := c.Scrub(i)
			if err != nil {
				return fmt.Errorf("scrub node %d: %w", i, err)
			}
			pt.Detected += len(rep.Errors)
		}
		pt.SweepMs = proc.Now() - start

		// A full read pass returns verified data throughout (read-repair
		// rewrites the corrupt primary copies from their mirrors).
		repairedBefore := cl.Net.Stats().Get("bridge.readrepair_blocks")
		for i := int64(0); i < nm; i++ {
			data, err := m.Read(i)
			if err != nil {
				return fmt.Errorf("read block %d: %w", i, err)
			}
			if !bytes.Equal(data, recs[i]) {
				return fmt.Errorf("block %d: wrong bytes after read-repair", i)
			}
		}
		readRepaired := cl.Net.Stats().Get("bridge.readrepair_blocks") - repairedBefore

		// Resilver rewrites the corrupt shadow copies reads never touched.
		resilvered, err := m.Resilver()
		if err != nil {
			return fmt.Errorf("resilver: %w", err)
		}
		pt.Repaired = int(readRepaired) + int(resilvered)

		// A final sweep proves the medium is fully clean again.
		for i := range cl.Nodes {
			rep, err := c.Scrub(i)
			if err != nil {
				return fmt.Errorf("final scrub node %d: %w", i, err)
			}
			pt.Residual += len(rep.Errors)
		}
		return nil
	})
	return pt, err
}

// RenderScrubOverhead writes the scrub-overhead comparison.
func RenderScrubOverhead(w io.Writer, pts []ScrubOverheadPoint, records int) {
	fmt.Fprintf(w, "Scrub overhead: batched naive read of a %d-block file (per block)\n", records)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "p\tno scrub\tscrub on\toverhead")
	for _, pt := range pts {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.1f%%\n", pt.P, fmtDur(pt.Plain), fmtDur(pt.Scrubbed), pt.Overhead()*100)
	}
	tw.Flush()
	fmt.Fprintln(w, "(idle-time scrubbing: increments defer to foreground traffic)")
}

// RenderCorruption writes the corruption-recovery experiment.
func RenderCorruption(w io.Writer, pts []CorruptionPoint) {
	fmt.Fprintf(w, "Corruption recovery: %d silent bit-flips per node, mirrored file\n", corruptionFlips)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "p\tinjected\tdetected\trepaired\tresidual\tsweep (virtual)")
	for _, pt := range pts {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%s\n",
			pt.P, pt.Injected, pt.Detected, pt.Repaired, pt.Residual, fmtDur(pt.SweepMs))
	}
	tw.Flush()
	fmt.Fprintln(w, "(detect: scrub sweep; repair: read-repair from mirror + resilver)")
}

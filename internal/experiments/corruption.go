package experiments

// The integrity experiments measure what the paper's reliability section
// argues qualitatively: silent corruption is detected by per-block
// checksums, repaired from redundancy, and the background scrubber that
// finds it costs nearly nothing on the hot read path because it only runs
// in idle disk time.

import (
	"bytes"
	"fmt"
	"time"

	"bridge/internal/core"
	"bridge/internal/lfs"
	"bridge/internal/replica"
	"bridge/internal/sim"
	"bridge/internal/workload"
)

// ScrubOverhead measures the batched sequential read of the standard
// workload file twice per processor count — once on a plain cluster, once
// with the default idle-time scrubber running on every node.
func ScrubOverhead(cfg Config) ([]OverheadPoint, error) {
	cfg.smallCache()
	return overheads(cfg, func(p int, cfg Config, on bool) (time.Duration, error) {
		if on {
			cfg.Scrub = &lfs.ScrubConfig{}
		}
		return batchedRead(p, cfg, nil)
	})
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

func scrubReport(pts []OverheadPoint, cfg Config) Report {
	return Report{
		Tables: []Table{overheadTable(fmt.Sprintf("Batched naive read of a %d-block file, per block, with and without every node's idle-time scrubber:", cfg.Records), "scrub", pts)},
		Summary: fmt.Sprintf("the scrubber costs the batched read %.1f%% at p = %d",
			pts[len(pts)-1].Overhead()*100, pts[len(pts)-1].P),
	}
}

func corruptionReport(pts []CorruptionPoint, _ Config) Report {
	injected, repaired, residual := 0, 0, 0
	for _, pt := range pts {
		injected += pt.Injected
		repaired += pt.Repaired
		residual += pt.Residual
	}
	return Report{
		Tables: []Table{{
			Caption: fmt.Sprintf("%d silent bit-flips per node under a mirrored file; detect with a scrub sweep, repair by read-repair from the mirror and `Resilver`:", corruptionFlips),
			Header:  []string{"p", "injected", "detected", "repaired", "residual", "sweep (virtual)"},
			Rows: cells(pts, func(pt CorruptionPoint) []string {
				return []string{fmt.Sprint(pt.P), fmt.Sprint(pt.Injected), fmt.Sprint(pt.Detected), fmt.Sprint(pt.Repaired), fmt.Sprint(pt.Residual), fmtDur(pt.SweepMs)}
			}),
		}},
		Summary: fmt.Sprintf("%d of %d injected flips repaired, %d left after the final sweep", repaired, injected, residual),
	}
}

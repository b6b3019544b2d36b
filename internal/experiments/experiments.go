// Package experiments regenerates every measurable artifact of the Bridge
// paper's evaluation — Table 2 (basic operation costs), Table 3 and its
// records/second figure (the copy tool), Table 4 and its figures (the merge
// sort tool) — plus the ablations the paper argues qualitatively: placement
// strategies (Section 3), binary-tree versus sequential Create initiation
// (Section 4.5), virtual parallelism of the parallel open (Section 4.1),
// tool versus naive versus sequential access (Section 6), and fault
// intolerance with mirroring/parity costs (Section 7).
//
// Every experiment boots a fresh simulated cluster per configuration and
// measures simulated time under the deterministic virtual clock, with
// 15 ms Wren-class disks, exactly as the paper's own methodology (their
// disks were also RAM-backed simulations with a 15 ms sleep).
//
// Experiments lists them in one order. A Run measures each at most once
// and renders its Report as markdown: the block cmd/bridgebench prints and
// EXPERIMENTS.md holds, regenerated by TestExperimentsDocUpToDate.
package experiments

import (
	"fmt"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/obs"
	"bridge/internal/sim"
	"bridge/internal/workload"
)

// Config scales the experiment suite. The zero value, after defaults, is
// the paper's own configuration: a 10 MB file of 10240 one-block records on
// 15 ms disks.
type Config struct {
	// Ps is the processor sweep. Nil runs each experiment of a Run over
	// its own sweep, and a measurement called directly over
	// {2, 4, 8, 16, 32}.
	Ps []int
	// Records is the workload file size in one-block records. Default
	// 10240 (the paper's 10 MB file). Benchmarks use smaller values.
	Records int
	// PayloadBytes is the record payload size. Default core.PayloadBytes
	// (960, a full block).
	PayloadBytes int
	// DiskLatency is the per-access device delay. Default 15ms.
	DiskLatency time.Duration
	// InCore is the sort tool's in-core buffer in records. Default 512.
	InCore int
	// Seed drives workload generation.
	Seed int64
	// CacheBlocks overrides the per-node EFS block cache (0 = EFS
	// default). Table 2 uses a small cache so sequential reads exercise
	// track buffering rather than whole-file residency.
	CacheBlocks int
	// LFSTimeout is the Bridge Server's failure-detection timeout. The
	// default (1h) dwarfs the longest legitimate full-scale operation;
	// the fault experiment shortens it so failover is responsive.
	LFSTimeout time.Duration
	// ReadAhead enables the Bridge Server's sequential read-ahead cache
	// (windows of ReadAhead stripes). 0 — the default, used by the
	// paper-fidelity experiments — keeps the measured per-block behavior.
	ReadAhead int
	// WriteBehind enables the Bridge Server's group-commit append cache
	// (windows of WriteBehind stripes). 0 — the default, used by the
	// paper-fidelity experiments — keeps every append synchronous.
	WriteBehind int
	// Scrub enables each node's idle-time background scrubber, for the
	// integrity-overhead experiments. Nil — the default — leaves it off.
	Scrub *lfs.ScrubConfig
	// JournalBlocks reserves a per-node write-ahead intent journal of
	// this many blocks, for the durability-overhead experiments. 0 — the
	// default — runs unjournaled volumes.
	JournalBlocks int
}

// raStripes is the read-ahead window size the batched-naive experiments
// use, in stripes of p blocks: a window of 2p blocks. How many windows are
// in flight behind it is the server's own constant (core's raDepth).
const raStripes = 2

// paperPs is the paper's processor sweep.
var paperPs = []int{2, 4, 8, 16, 32}

func (c *Config) applyDefaults() {
	if c.Records == 0 {
		c.Records = 10240
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = core.PayloadBytes
	}
	if c.DiskLatency == 0 {
		c.DiskLatency = 15 * time.Millisecond
	}
	if c.InCore == 0 {
		c.InCore = 512
	}
	if c.Seed == 0 {
		c.Seed = 1988
	}
	if c.LFSTimeout == 0 {
		c.LFSTimeout = time.Hour
	}
}

// prepare applies the defaults and rejects a processor count below 1,
// in c.Ps or in ps (an experiment's own p arguments), before anything
// divides by it.
func (c *Config) prepare(ps ...int) error {
	c.applyDefaults()
	if len(c.Ps) == 0 {
		c.Ps = paperPs
	}
	for _, p := range append(ps, c.Ps...) {
		if p < 1 {
			return fmt.Errorf("%w: p = %d", core.ErrBadArg, p)
		}
	}
	return nil
}

// smallCache gives c, unless it sets its own, the two-track EFS cache of
// Table 2 and every batched read compared with it: sequential reads stay
// track-buffered without whole test files going cache-resident, which
// would hide the Read startup term.
func (c *Config) smallCache() {
	if c.CacheBlocks == 0 {
		c.CacheBlocks = 16
	}
}

// sweep prepares cfg and measures at(p, cfg) for each p in cfg.Ps, in
// order.
func sweep[T any](cfg Config, at func(p int, cfg Config) (T, error)) ([]T, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	out := make([]T, 0, len(cfg.Ps))
	for _, p := range cfg.Ps {
		pt, err := at(p, cfg)
		if err != nil {
			return nil, fmt.Errorf("p=%d: %w", p, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// PaperScale returns the paper's full-scale configuration, each experiment
// over its own processor sweep.
func PaperScale() Config {
	var c Config
	c.applyDefaults()
	return c
}

// QuickScale returns a reduced configuration (1/16 of the records, smaller
// in-core buffer to preserve the run/merge structure) that keeps every
// experiment's shape while running quickly; used by `bridgebench -quick`
// and the BENCH.json golden test.
func QuickScale() Config {
	c := PaperScale()
	c.Records = 640
	c.InCore = 32
	return c
}

// clusterFor sizes a cluster of p storage nodes for the workload.
func clusterFor(p int, cfg Config) core.ClusterConfig {
	perNode := cfg.Records/p + 1
	// Source + destination + sort runs in flight + metadata headroom.
	blocks := perNode*5 + 256
	return core.ClusterConfig{
		P: p,
		Node: lfs.Config{
			DiskBlocks: blocks,
			Timing:     disk.FixedTiming{Latency: cfg.DiskLatency},
			EFS:        efs.Options{CacheBlocks: cfg.CacheBlocks, JournalBlocks: cfg.JournalBlocks},
			Scrub:      cfg.Scrub,
		},
		// A full-scale delete legitimately takes minutes of simulated
		// time at small p; the failure-detection timeout must dwarf it.
		Server: core.Config{LFSTimeout: cfg.LFSTimeout, ReadAhead: cfg.ReadAhead, WriteBehind: cfg.WriteBehind},
	}
}

// runSim executes fn as a controller process on a fresh cluster of p nodes
// and returns the first error from fn or the simulation.
func runSim(p int, cfg Config, fn func(proc sim.Proc, cl *core.Cluster, c *core.Client) error) error {
	return runOn(clusterFor(p, cfg), fn)
}

// runOn is runSim on a cluster booted from cc.
func runOn(cc core.ClusterConfig, fn func(proc sim.Proc, cl *core.Cluster, c *core.Client) error) error {
	rt := sim.NewVirtual()
	cl, err := core.StartCluster(rt, cc)
	if err != nil {
		return err
	}
	var fnErr error
	rt.Go("experiment", func(proc sim.Proc) {
		defer cl.Stop()
		c := cl.NewClient(proc, 0, "exp-cli")
		defer c.Close()
		fnErr = fn(proc, cl, c)
	})
	if err := rt.Wait(); err != nil {
		if fnErr != nil {
			return fmt.Errorf("%w (sim: %v)", fnErr, err)
		}
		return err
	}
	return fnErr
}

// awaitAll receives n results from done, each an error or nil, and
// returns the first error among them.
func awaitAll(proc sim.Proc, done sim.Queue, n int) error {
	var first error
	for i := 0; i < n; i++ {
		v, ok := done.Recv(proc)
		if !ok {
			return fmt.Errorf("done queue closed")
		}
		if err, _ := v.(error); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fill writes the standard record workload into name.
func fill(proc sim.Proc, c *core.Client, cfg Config, name string) error {
	recs := workload.Records(cfg.Seed, cfg.Records, cfg.PayloadBytes)
	return workload.Fill(proc, c, name, recs)
}

// batchedRead fills the standard file on a p-node cluster with read-ahead on
// and returns the per-block cost of one SeqReadN sweep over it. rec, when
// set, records the whole run, fill included: the worst case for recording
// volume.
func batchedRead(p int, cfg Config, rec *obs.Recorder) (time.Duration, error) {
	bcfg := cfg
	bcfg.ReadAhead = raStripes
	var perBlock time.Duration
	err := runSim(p, bcfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		if rec != nil {
			cl.Net.SetRecorder(rec)
			for _, nd := range cl.Nodes {
				nd.Disk.SetRecorder(rec, int(nd.ID))
			}
		}
		if err := fill(proc, c, cfg, "f"); err != nil {
			return err
		}
		if _, err := c.Open("f"); err != nil {
			return err
		}
		start := proc.Now()
		if err := readAllN(c, "f", p, cfg.Records); err != nil {
			return err
		}
		perBlock = (proc.Now() - start) / time.Duration(cfg.Records)
		return nil
	})
	return perBlock, err
}

// OverheadPoint compares one path measured plain and with one addition
// switched on, at one processor count.
type OverheadPoint struct {
	P     int
	Plain time.Duration
	With  time.Duration
}

// Overhead returns the fractional slowdown the addition imposes (0.02 = 2%
// slower).
func (pt OverheadPoint) Overhead() float64 {
	if pt.Plain <= 0 {
		return 0
	}
	return float64(pt.With-pt.Plain) / float64(pt.Plain)
}

// overheads measures, at each p of cfg.Ps, one path plain (on false) and
// with its addition switched on.
func overheads(cfg Config, measure func(p int, cfg Config, on bool) (time.Duration, error)) ([]OverheadPoint, error) {
	return sweep(cfg, func(p int, cfg Config) (OverheadPoint, error) {
		pt := OverheadPoint{P: p}
		var err error
		if pt.Plain, err = measure(p, cfg, false); err != nil {
			return pt, fmt.Errorf("plain: %w", err)
		}
		pt.With, err = measure(p, cfg, true)
		return pt, err
	})
}

// overheadTable tabulates pts, the addition named on.
func overheadTable(caption, on string, pts []OverheadPoint) Table {
	return Table{
		Caption: caption,
		Header:  []string{"p", "no " + on, on + " on", "overhead"},
		Rows: cells(pts, func(pt OverheadPoint) []string {
			return []string{fmt.Sprint(pt.P), fmtDur(pt.Plain), fmtDur(pt.With), fmt.Sprintf("%.1f%%", pt.Overhead()*100)}
		}),
	}
}

// readAllN reads the open file name to its end through SeqReadN in batches
// of 4p, checking that it held n blocks.
func readAllN(c *core.Client, name string, p, n int) error {
	got := 0
	for {
		blocks, eof, err := c.SeqReadN(name, 4*p)
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
	return nil
}

// recPerSec converts a duration for cfg.Records records into a rate.
func recPerSec(records int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(records) / d.Seconds()
}

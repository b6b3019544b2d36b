package experiments

import (
	"fmt"
	"time"

	"bridge/internal/core"
	"bridge/internal/distrib"
	"bridge/internal/msg"
	"bridge/internal/replica"
	"bridge/internal/seqfs"
	"bridge/internal/sim"
	"bridge/internal/tools"
	"bridge/internal/workload"
)

// --- A1: placement strategies (Section 3) ---

// PlacementRow quantifies one strategy at one width.
type PlacementRow struct {
	P        int
	Strategy string
	// DistinctFrac is the fraction of p-block windows landing on p
	// distinct nodes (round-robin: 1.0 by construction).
	DistinctFrac float64
	// MeanMaxLoad is the expected per-window serialization factor for
	// parallel batch reads (1.0 = perfectly parallel).
	MeanMaxLoad float64
	// EffParallelism is P / MeanMaxLoad.
	EffParallelism float64
}

// ChunkReorgRow shows the cost of growing a chunked file.
type ChunkReorgRow struct {
	P          int
	OldBlocks  int64
	NewBlocks  int64
	MovedRR    int64 // round-robin: appends never move blocks
	MovedChunk int64
}

// Placement runs the Section 3 ablation analytically.
func Placement(cfg Config) ([]PlacementRow, []ChunkReorgRow, error) {
	if err := cfg.prepare(); err != nil {
		return nil, nil, err
	}
	const windows = 2000
	var rows []PlacementRow
	for _, p := range cfg.Ps {
		rr, err := distrib.New(distrib.Spec{Kind: distrib.RoundRobin, P: p})
		if err != nil {
			return nil, nil, err
		}
		h, err := distrib.New(distrib.Spec{Kind: distrib.Hashed, P: p, Seed: uint64(cfg.Seed)})
		if err != nil {
			return nil, nil, err
		}
		ch, err := distrib.New(distrib.Spec{Kind: distrib.Chunked, P: p, TotalBlocks: int64(cfg.Records)})
		if err != nil {
			return nil, nil, err
		}
		for _, s := range []struct {
			name string
			l    distrib.Layout
		}{{"round-robin", rr}, {"hashed", h}, {"chunked", ch}} {
			load := distrib.MeanWindowMaxLoad(s.l, windows, p)
			rows = append(rows, PlacementRow{
				P:              p,
				Strategy:       s.name,
				DistinctFrac:   distrib.DistinctWindowFraction(s.l, windows, p),
				MeanMaxLoad:    load,
				EffParallelism: float64(p) / load,
			})
		}
	}
	var reorg []ChunkReorgRow
	for _, p := range cfg.Ps {
		old := int64(cfg.Records)
		grown := old + old/2
		reorg = append(reorg, ChunkReorgRow{
			P:          p,
			OldBlocks:  old,
			NewBlocks:  grown,
			MovedRR:    0,
			MovedChunk: distrib.ChunkedAppendMoves(p, old, grown),
		})
	}
	return rows, reorg, nil
}

// --- A2: Create initiation, sequential loop vs embedded binary tree
// (Section 4.5: "Performance could be improved somewhat by sending startup
// and completion messages through an embedded binary tree.") ---

// CreateTreeRow compares Create costs at one width.
type CreateTreeRow struct {
	P          int
	Sequential time.Duration
	Tree       time.Duration
}

// CreateTree measures Create with both initiation strategies.
func CreateTree(cfg Config) ([]CreateTreeRow, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	rows := make([]CreateTreeRow, 0, len(cfg.Ps))
	for _, p := range cfg.Ps {
		row := CreateTreeRow{P: p}
		err := runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			const trials = 4
			proc.Sleep(2 * time.Second) // let boot-time formatting settle
			start := proc.Now()
			for i := 0; i < trials; i++ {
				if _, err := c.CreateSpec(fmt.Sprintf("seq%d", i), distrib.Spec{}, false); err != nil {
					return err
				}
			}
			row.Sequential = (proc.Now() - start) / trials
			start = proc.Now()
			for i := 0; i < trials; i++ {
				if _, err := c.CreateSpec(fmt.Sprintf("tree%d", i), distrib.Spec{}, true); err != nil {
					return err
				}
			}
			row.Tree = (proc.Now() - start) / trials
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("createtree p=%d: %w", p, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- A3: parallel-open virtual parallelism (Section 4.1) ---

// ParallelOpenRow measures a whole-file job read at one job width.
type ParallelOpenRow struct {
	T         int // job width (number of workers)
	Time      time.Duration
	RecPerSec float64
}

// ParallelOpen reads the standard file through parallel-open jobs of
// increasing width on a fixed p-node cluster. Throughput grows until t
// reaches the interleaving breadth p, after which the Bridge Server
// simulates the extra parallelism in lock-step groups of p and the curve
// flattens — "hidden serialization ... may lead to unexpected performance".
func ParallelOpen(cfg Config, p int, widths []int) ([]ParallelOpenRow, error) {
	if err := cfg.prepare(p); err != nil {
		return nil, err
	}
	if len(widths) == 0 {
		widths = []int{1, 2, 4, 8, 16, 32}
	}
	rows := make([]ParallelOpenRow, 0, len(widths))
	for _, t := range widths {
		t := t
		var elapsed time.Duration
		err := runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			if err := fill(proc, c, cfg, "f"); err != nil {
				return err
			}
			workers := make([]msg.Addr, t)
			jws := make([]*core.JobWorker, t)
			for w := 0; w < t; w++ {
				jw := core.NewJobWorker(cl.Net, 0, fmt.Sprintf("po.w%d", w))
				jws[w] = jw
				workers[w] = jw.Addr()
				proc.Go(fmt.Sprintf("po.worker%d", w), func(wp sim.Proc) {
					for {
						if _, ok := jw.Next(wp); !ok {
							return
						}
					}
				})
			}
			job, err := c.ParallelOpen("f", workers)
			if err != nil {
				return err
			}
			start := proc.Now()
			for {
				_, eof, err := job.Read()
				if err != nil {
					return err
				}
				if eof {
					break
				}
			}
			elapsed = proc.Now() - start
			if err := job.Close(); err != nil {
				return err
			}
			for _, jw := range jws {
				jw.Close()
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("parallelopen t=%d: %w", t, err)
		}
		rows = append(rows, ParallelOpenRow{T: t, Time: elapsed, RecPerSec: recPerSec(cfg.Records, elapsed)})
	}
	return rows, nil
}

// --- A4a: tool vs naive vs sequential copy (Section 6) ---

// AccessMethodRow compares one copy method.
type AccessMethodRow struct {
	Method    string
	P         int
	Time      time.Duration
	RecPerSec float64
}

// ToolVsNaive copies the standard file four ways: through a single-node
// conventional file system, through the naive interface of a p-node Bridge
// (striping only), through a parallel-open job, and as a tool.
func ToolVsNaive(cfg Config, p int) ([]AccessMethodRow, error) {
	if err := cfg.prepare(p); err != nil {
		return nil, err
	}
	var rows []AccessMethodRow

	// Conventional sequential file system: one node, one server.
	var seqTime time.Duration
	err := runSim(1, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		if err := fill(proc, c, cfg, "src"); err != nil {
			return err
		}
		start := proc.Now()
		n, err := seqfs.Copy(proc, c, "src", "dst")
		if err != nil {
			return err
		}
		if n != int64(cfg.Records) {
			return fmt.Errorf("seq copy moved %d, want %d", n, cfg.Records)
		}
		seqTime = proc.Now() - start
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("seqfs copy: %w", err)
	}
	rows = append(rows, AccessMethodRow{Method: "sequential FS (p=1)", P: 1, Time: seqTime, RecPerSec: recPerSec(cfg.Records, seqTime)})

	// Naive interface on p nodes (striping without parallel software).
	var naiveTime time.Duration
	err = runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		if err := fill(proc, c, cfg, "src"); err != nil {
			return err
		}
		start := proc.Now()
		if _, err := seqfs.Copy(proc, c, "src", "dst"); err != nil {
			return err
		}
		naiveTime = proc.Now() - start
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("naive copy: %w", err)
	}
	rows = append(rows, AccessMethodRow{Method: "naive interface", P: p, Time: naiveTime, RecPerSec: recPerSec(cfg.Records, naiveTime)})

	// Batched naive interface: the same sequential client, but moving
	// runs of blocks per request (SeqReadN/AppendN) with server
	// read-ahead, so every round trip drives all p disks.
	var batchedTime time.Duration
	bcfg := cfg
	bcfg.ReadAhead = raStripes
	err = runSim(p, bcfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		if err := fill(proc, c, cfg, "src"); err != nil {
			return err
		}
		if _, err := c.Create("dst"); err != nil {
			return err
		}
		if _, err := c.Open("src"); err != nil {
			return err
		}
		batch := 4 * p
		start := proc.Now()
		moved := 0
		for {
			blocks, eof, err := c.SeqReadN("src", batch)
			if err != nil {
				return err
			}
			if len(blocks) > 0 {
				n, err := c.AppendN("dst", blocks)
				if err != nil {
					return err
				}
				moved += n
			}
			if eof {
				break
			}
		}
		if moved != cfg.Records {
			return fmt.Errorf("batched copy moved %d, want %d", moved, cfg.Records)
		}
		batchedTime = proc.Now() - start
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("batched naive copy: %w", err)
	}
	rows = append(rows, AccessMethodRow{Method: "naive batched (vec)", P: p, Time: batchedTime, RecPerSec: recPerSec(cfg.Records, batchedTime)})

	// Parallel-open job of width p: read rounds feed write rounds.
	var jobTime time.Duration
	err = runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		if err := fill(proc, c, cfg, "src"); err != nil {
			return err
		}
		if _, err := c.Create("dst"); err != nil {
			return err
		}
		start := proc.Now()
		if err := jobCopy(proc, cl, c, "src", "dst", p); err != nil {
			return err
		}
		jobTime = proc.Now() - start
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("job copy: %w", err)
	}
	rows = append(rows, AccessMethodRow{Method: "parallel open (t=p)", P: p, Time: jobTime, RecPerSec: recPerSec(cfg.Records, jobTime)})

	// Tool copy.
	var toolTime time.Duration
	err = runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		if err := fill(proc, c, cfg, "src"); err != nil {
			return err
		}
		start := proc.Now()
		if _, err := tools.Copy(proc, c, "src", "dst"); err != nil {
			return err
		}
		toolTime = proc.Now() - start
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tool copy: %w", err)
	}
	rows = append(rows, AccessMethodRow{Method: "copy tool", P: p, Time: toolTime, RecPerSec: recPerSec(cfg.Records, toolTime)})
	return rows, nil
}

// jobCopy copies src to dst through a parallel-open job: each read round's
// blocks are echoed back in the following write round by the same workers.
func jobCopy(proc sim.Proc, cl *core.Cluster, c *core.Client, src, dst string, t int) error {
	workers := make([]msg.Addr, t)
	jws := make([]*core.JobWorker, t)
	for w := 0; w < t; w++ {
		jw := core.NewJobWorker(cl.Net, 0, fmt.Sprintf("jc.w%d", w))
		jws[w] = jw
		workers[w] = jw.Addr()
		proc.Go(fmt.Sprintf("jc.worker%d", w), func(wp sim.Proc) {
			for {
				d, ok := jw.Next(wp)
				if !ok {
					return
				}
				if err := jw.Supply(wp, d.Data, d.EOF); err != nil {
					return
				}
			}
		})
	}
	rjob, err := c.ParallelOpen(src, workers)
	if err != nil {
		return err
	}
	wjob, err := c.ParallelOpen(dst, workers)
	if err != nil {
		return err
	}
	for {
		_, eof, err := rjob.Read()
		if err != nil {
			return err
		}
		if _, err := wjob.Write(); err != nil {
			return err
		}
		if eof {
			break
		}
	}
	if err := rjob.Close(); err != nil {
		return err
	}
	if err := wjob.Close(); err != nil {
		return err
	}
	for _, jw := range jws {
		jw.Close()
	}
	return nil
}

// --- A4b: fault intolerance and the replication/parity remedies
// (Section 7) ---

// FaultReport summarizes the fault experiment.
type FaultReport struct {
	P int
	// UnprotectedRuined: reading any block on the failed node fails.
	UnprotectedRuined bool
	// Mirror and parity behavior after a single node failure.
	MirrorSurvives bool
	ParitySurvives bool
	// Write costs per record relative to an unprotected file.
	MirrorWriteFactor float64
	ParityWriteFactor float64
	// Storage blocks used per data block.
	MirrorStorageFactor float64
	ParityStorageFactor float64
	// Degraded read cost relative to a healthy read.
	ParityDegradedReadFactor float64
}

// Faults runs the Section 7 experiment on a p-node cluster with a reduced
// record count (failure handling is timeout-driven).
func Faults(cfg Config, p int) (*FaultReport, error) {
	if err := cfg.prepare(p); err != nil {
		return nil, err
	}
	// Responsive failover: the workload here is tiny, so a short
	// failure-detection timeout keeps the single-threaded server from
	// head-of-line blocking on the dead node.
	cfg.LFSTimeout = 30 * time.Second
	n := cfg.Records
	if n > 64 {
		n = 64
	}
	rep := &FaultReport{P: p}
	err := runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		c.SetTimeout(10 * time.Minute)
		recs := workload.Records(cfg.Seed, n, core.PayloadBytes)

		used := func() int {
			total := 0
			for _, nd := range cl.Nodes {
				total += nd.FS().Disk().Config().NumBlocks - nd.FS().FreeBlocks()
			}
			return total
		}

		// Unprotected file.
		if err := workload.Fill(proc, c, "plain", recs); err != nil {
			return err
		}
		start := proc.Now()
		if err := c.SeqWrite("plain", recs[0]); err != nil {
			return err
		}
		plainWrite := proc.Now() - start
		start = proc.Now()
		if _, err := c.ReadAt("plain", 0); err != nil {
			return err
		}
		healthyRead := proc.Now() - start

		// Mirror.
		base := used()
		m, err := replica.CreateMirror(proc, c, "mir", p)
		if err != nil {
			return err
		}
		start = proc.Now()
		for _, r := range recs {
			if err := m.Append(r); err != nil {
				return err
			}
		}
		mirrorWrite := (proc.Now() - start) / time.Duration(n)
		rep.MirrorStorageFactor = float64(used()-base) / float64(n)
		rep.MirrorWriteFactor = float64(mirrorWrite) / float64(plainWrite)

		// Parity.
		base = used()
		pf, err := replica.CreateParity(proc, c, "par", p)
		if err != nil {
			return err
		}
		start = proc.Now()
		for _, r := range recs {
			if err := pf.Append(r); err != nil {
				return err
			}
		}
		parityWrite := (proc.Now() - start) / time.Duration(n)
		rep.ParityStorageFactor = float64(used()-base) / float64(n)
		rep.ParityWriteFactor = float64(parityWrite) / float64(plainWrite)

		// Fail one data node. Use a short server timeout so failure
		// surfaces quickly in simulated time.
		cl.FailNode(1)

		if _, err := c.ReadAt("plain", 1); err != nil {
			rep.UnprotectedRuined = true
		}
		rep.MirrorSurvives = true
		for i := int64(0); i < int64(n); i++ {
			if _, err := m.Read(i); err != nil {
				rep.MirrorSurvives = false
				break
			}
		}
		rep.ParitySurvives = true
		var reconTotal time.Duration
		reconReads := 0
		for i := int64(0); i < int64(n); i++ {
			if int(i)%(p-1) == 1 {
				// Block on the failed node: reconstruction path,
				// timed directly (Read would first pay the failure-
				// detection timeout, which measures the timeout
				// setting, not the scheme).
				start = proc.Now()
				if _, err := pf.Reconstruct(i); err != nil {
					rep.ParitySurvives = false
					break
				}
				reconTotal += proc.Now() - start
				reconReads++
				continue
			}
			if _, err := pf.Read(i); err != nil {
				rep.ParitySurvives = false
				break
			}
		}
		if reconReads > 0 && healthyRead > 0 {
			rep.ParityDegradedReadFactor = float64(reconTotal/time.Duration(reconReads)) / float64(healthyRead)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

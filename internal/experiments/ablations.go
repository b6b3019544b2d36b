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

// PlacementResult is the A1 ablation: each strategy's windows, and what
// growing a file costs each.
type PlacementResult struct {
	Windows []PlacementRow
	Growth  []ChunkReorgRow
}

// Placement runs the Section 3 ablation analytically.
func Placement(cfg Config) (*PlacementResult, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	const windows = 2000
	var rows []PlacementRow
	for _, p := range cfg.Ps {
		rr, err := distrib.New(distrib.Spec{Kind: distrib.RoundRobin, P: p})
		if err != nil {
			return nil, err
		}
		h, err := distrib.New(distrib.Spec{Kind: distrib.Hashed, P: p, Seed: uint64(cfg.Seed)})
		if err != nil {
			return nil, err
		}
		ch, err := distrib.New(distrib.Spec{Kind: distrib.Chunked, P: p, TotalBlocks: int64(cfg.Records)})
		if err != nil {
			return nil, err
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
	return &PlacementResult{Windows: rows, Growth: reorg}, nil
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
	return sweep(cfg, func(p int, cfg Config) (CreateTreeRow, error) {
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
		return row, err
	})
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
func ParallelOpen(cfg Config, p int) ([]ParallelOpenRow, error) {
	if err := cfg.prepare(p); err != nil {
		return nil, err
	}
	rows := make([]ParallelOpenRow, 0, len(popenWidths))
	for _, t := range popenWidths {
		t := t
		var elapsed time.Duration
		err := runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			if err := fill(proc, c, cfg, "f"); err != nil {
				return err
			}
			workers, jws := jobWorkers(proc, cl, "po", t, false)
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
	// Each method copies the filled standard file src to dst on its own
	// cluster and returns how long the copy took.
	naive := func(proc sim.Proc, _ *core.Cluster, c *core.Client) (time.Duration, error) {
		start := proc.Now()
		n, err := seqfs.Copy(proc, c, "src", "dst")
		if err == nil && n != int64(cfg.Records) {
			err = fmt.Errorf("naive copy moved %d, want %d", n, cfg.Records)
		}
		return proc.Now() - start, err
	}
	// The batched naive interface: the same sequential client, but moving
	// runs of blocks per request (SeqReadN/AppendN) with server read-ahead,
	// so every round trip drives all p disks.
	bcfg := cfg
	bcfg.ReadAhead = raStripes
	methods := []struct {
		name string
		p    int
		cfg  Config
		copy func(proc sim.Proc, cl *core.Cluster, c *core.Client) (time.Duration, error)
	}{
		// A conventional sequential file system: one node, one server.
		{"sequential FS (p=1)", 1, cfg, naive},
		// Striping without parallel software.
		{"naive interface", p, cfg, naive},
		{"naive batched (vec)", p, bcfg, func(proc sim.Proc, _ *core.Cluster, c *core.Client) (time.Duration, error) {
			if _, err := c.Create("dst"); err != nil {
				return 0, err
			}
			if _, err := c.Open("src"); err != nil {
				return 0, err
			}
			start := proc.Now()
			moved := 0
			for {
				blocks, eof, err := c.SeqReadN("src", 4*p)
				if err != nil {
					return 0, err
				}
				if len(blocks) > 0 {
					n, err := c.AppendN("dst", blocks)
					if err != nil {
						return 0, err
					}
					moved += n
				}
				if eof {
					break
				}
			}
			if moved != cfg.Records {
				return 0, fmt.Errorf("batched copy moved %d, want %d", moved, cfg.Records)
			}
			return proc.Now() - start, nil
		}},
		// A parallel-open job of width p: read rounds feed write rounds.
		{"parallel open (t=p)", p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) (time.Duration, error) {
			if _, err := c.Create("dst"); err != nil {
				return 0, err
			}
			start := proc.Now()
			err := jobCopy(proc, cl, c, "src", "dst", p)
			return proc.Now() - start, err
		}},
		{"copy tool", p, cfg, func(proc sim.Proc, _ *core.Cluster, c *core.Client) (time.Duration, error) {
			start := proc.Now()
			_, err := tools.Copy(proc, c, "src", "dst")
			return proc.Now() - start, err
		}},
	}
	rows := make([]AccessMethodRow, 0, len(methods))
	for _, m := range methods {
		var elapsed time.Duration
		err := runSim(m.p, m.cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			if err := fill(proc, c, cfg, "src"); err != nil {
				return err
			}
			var err error
			elapsed, err = m.copy(proc, cl, c)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s copy: %w", m.name, err)
		}
		rows = append(rows, AccessMethodRow{Method: m.name, P: m.p, Time: elapsed, RecPerSec: recPerSec(cfg.Records, elapsed)})
	}
	return rows, nil
}

// jobCopy copies src to dst through a parallel-open job: each read round's
// blocks are echoed back in the following write round by the same workers.
func jobCopy(proc sim.Proc, cl *core.Cluster, c *core.Client, src, dst string, t int) error {
	workers, jws := jobWorkers(proc, cl, "jc", t, true)
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

// jobWorkers starts t job workers on node 0, named after prefix, that take
// each transfer their job hands them and, if echo, supply it back to the
// next one, until the job closes.
func jobWorkers(proc sim.Proc, cl *core.Cluster, prefix string, t int, echo bool) ([]msg.Addr, []*core.JobWorker) {
	workers := make([]msg.Addr, t)
	jws := make([]*core.JobWorker, t)
	for w := 0; w < t; w++ {
		jw := core.NewJobWorker(cl.Net, 0, fmt.Sprintf("%s.w%d", prefix, w))
		jws[w] = jw
		workers[w] = jw.Addr()
		proc.Go(fmt.Sprintf("%s.worker%d", prefix, w), func(wp sim.Proc) {
			for {
				d, ok := jw.Next(wp)
				if !ok || echo && jw.Supply(wp, d.Data, d.EOF) != nil {
					return
				}
			}
		})
	}
	return workers, jws
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

func placementReport(r *PlacementResult, _ Config) Report {
	at := map[string]PlacementRow{} // each strategy at fixedP if the sweep reaches it
	for _, w := range r.Windows {
		if at[w.Strategy].P != fixedP {
			at[w.Strategy] = w
		}
	}
	rr, hashed, growth := at["round-robin"], at["hashed"], r.Growth[len(r.Growth)-1]
	return Report{
		Tables: []Table{{
			Caption: "Windows of p consecutive blocks, per strategy (Section 3):",
			Header:  []string{"p", "strategy", "P(window on p distinct nodes)", "mean max load", "effective parallelism"},
			Rows: cells(r.Windows, func(w PlacementRow) []string {
				return []string{fmt.Sprint(w.P), w.Strategy, fmt.Sprintf("%.4f", w.DistinctFrac), fmt.Sprintf("%.2f", w.MeanMaxLoad), fmt.Sprintf("%.1f", w.EffParallelism)}
			}),
		}, {
			Caption: "Growing a file by 50% (blocks that must move between nodes):",
			Header:  []string{"p", "old blocks", "new blocks", "round-robin moves", "chunked moves"},
			Rows: cells(r.Growth, func(g ChunkReorgRow) []string {
				return []string{fmt.Sprint(g.P), fmt.Sprint(g.OldBlocks), fmt.Sprint(g.NewBlocks), fmt.Sprint(g.MovedRR), fmt.Sprint(g.MovedChunk)}
			}),
		}},
		Summary: fmt.Sprintf("a window of p blocks lands on p distinct nodes with probability %.4f under round-robin and %.4f hashed at p = %d; "+
			"growing a file by half moves %d chunked blocks and %d round-robin ones at p = %d",
			rr.DistinctFrac, hashed.DistinctFrac, hashed.P, growth.MovedChunk, growth.MovedRR, growth.P),
	}
}

func createTreeReport(rows []CreateTreeRow, _ Config) Report {
	saving := func(r CreateTreeRow) float64 { return 1 - float64(r.Tree)/float64(r.Sequential) }
	first, last := rows[0], rows[len(rows)-1]
	return Report{
		Tables: []Table{{
			Caption: "Create startup, sequential loop vs binary tree (Section 4.5):",
			Header:  []string{"p", "sequential", "tree", "saving"},
			Rows: cells(rows, func(r CreateTreeRow) []string {
				return []string{fmt.Sprint(r.P), fmtDur(r.Sequential), fmtDur(r.Tree), fmt.Sprintf("%.0f%%", saving(r)*100)}
			}),
		}},
		Summary: fmt.Sprintf("the tree saves %.0f%% at p = %d and %.0f%% at p = %d",
			saving(first)*100, first.P, saving(last)*100, last.P),
	}
}

func popenReport(rows []ParallelOpenRow, cfg Config) Report {
	at := func(t int) float64 {
		for _, r := range rows {
			if r.T == t {
				return r.RecPerSec
			}
		}
		return 0
	}
	return Report{
		Tables: []Table{{
			Caption: fmt.Sprintf("Parallel-open job width on %d nodes, %d records (Section 4.1):", fixedP, cfg.Records),
			Header:  []string{"t (workers)", "read time", "rec/s"},
			Rows: cells(rows, func(r ParallelOpenRow) []string {
				return []string{fmt.Sprint(r.T), fmtDur(r.Time), fmt.Sprintf("%.0f", r.RecPerSec)}
			}),
			Note: fmt.Sprintf("Widths beyond p = %d proceed in lock-step groups of p (virtual parallelism).", fixedP),
		}},
		Summary: fmt.Sprintf("%.0f rec/s at t = 1, %.0f at t = p = %d, %.0f at t = %d",
			at(1), at(fixedP), fixedP, rows[len(rows)-1].RecPerSec, rows[len(rows)-1].T),
	}
}

func methodsReport(rows []AccessMethodRow, cfg Config) Report {
	seq, naive, batched, job, tool := rows[0], rows[1], rows[2], rows[3], rows[4]
	return Report{
		Tables: []Table{{
			Caption: fmt.Sprintf("Copy of %d records, four ways (Section 6):", cfg.Records),
			Header:  []string{"method", "p", "time", "rec/s"},
			Rows: cells(rows, func(r AccessMethodRow) []string {
				return []string{r.Method, fmt.Sprint(r.P), fmtDur(r.Time), fmt.Sprintf("%.0f", r.RecPerSec)}
			}),
			Note: "The batched naive copy, not in the paper, reads and appends through `SeqReadN`/`AppendN` with server read-ahead.",
		}},
		Summary: fmt.Sprintf("tool %s, batched naive %s, parallel open %s, naive %s, sequential file system %s: "+
			"the tool is %.0f× the naive copy",
			fmtDur(tool.Time), fmtDur(batched.Time), fmtDur(job.Time), fmtDur(naive.Time), fmtDur(seq.Time), float64(naive.Time)/float64(tool.Time)),
	}
}

func faultsReport(r *FaultReport, _ Config) Report {
	survives := func(ok bool) string {
		if ok {
			return "survives"
		}
		return "lost"
	}
	ruined := "ruined"
	if !r.UnprotectedRuined {
		ruined = "readable"
	}
	return Report{
		Tables: []Table{{
			Caption: fmt.Sprintf("One node of %d failed (Section 7):", r.P),
			Header:  []string{"file", "after the failure", "write cost", "storage", "degraded read", "paper"},
			Rows: [][]string{
				{"unprotected", ruined + " (reads of the failed node's blocks fail)", "baseline", "baseline", "-", `"a failure anywhere in the system is fatal"`},
				{"2-way mirror", survives(r.MirrorSurvives), fmt.Sprintf("%.1f×", r.MirrorWriteFactor), fmt.Sprintf("%.1f×", r.MirrorStorageFactor), "-", `"storage capacity must be doubled"`},
				{"parity column", survives(r.ParitySurvives), fmt.Sprintf("%.1f×", r.ParityWriteFactor), fmt.Sprintf("%.2f×", r.ParityStorageFactor),
					fmt.Sprintf("%.1f×", r.ParityDegradedReadFactor), `"we see no obvious way to do so"`},
			},
		}},
		Summary: fmt.Sprintf("after one failure a plain file is %s, a mirror (%.1f× storage) %s and a parity column (%.2f×) %s; they write at %.1f× and %.1f× a plain file's cost",
			ruined, r.MirrorStorageFactor, survives(r.MirrorSurvives), r.ParityStorageFactor, survives(r.ParitySurvives), r.MirrorWriteFactor, r.ParityWriteFactor),
	}
}

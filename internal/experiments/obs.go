package experiments

// The observability experiments quantify two things: that attaching the
// span recorder costs nothing in simulated time (it must — spans charge no
// virtual time, so the perf gate holds it to ~0%), and where each access
// method actually spends its latency, layer by layer, which the paper's
// tables imply but never show directly.

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"bridge/internal/core"
	"bridge/internal/obs"
	"bridge/internal/sim"
	"bridge/internal/tools"
)

// ObsOverheadPoint compares the batched sequential read with and without
// the observability recorder attached to the network and every disk.
type ObsOverheadPoint struct {
	P        int
	Plain    time.Duration // per-block batched read, recorder off
	Observed time.Duration // per-block batched read, recorder on
}

// Overhead returns the fractional slowdown observability imposes on the
// batched read path. Spans charge no simulated time, so anything beyond
// scheduling noise is a bug.
func (pt ObsOverheadPoint) Overhead() float64 {
	if pt.Plain <= 0 {
		return 0
	}
	return float64(pt.Observed-pt.Plain) / float64(pt.Plain)
}

// ObsOverhead measures the batched sequential read twice per processor
// count — plain, then with a recorder capturing every span.
func ObsOverhead(cfg Config) ([]ObsOverheadPoint, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	if cfg.CacheBlocks == 0 {
		cfg.CacheBlocks = 16 // match Table 2's batched-naive row
	}
	var pts []ObsOverheadPoint
	for _, p := range cfg.Ps {
		pt := ObsOverheadPoint{P: p}
		var err error
		if pt.Plain, err = measureBatchedRead(p, cfg, nil); err != nil {
			return nil, fmt.Errorf("obs overhead p=%d plain: %w", p, err)
		}
		if pt.Observed, _, err = measureBatchedReadObs(p, cfg); err != nil {
			return nil, fmt.Errorf("obs overhead p=%d observed: %w", p, err)
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// WriteObsTrace runs the observed batched read at p and writes the run's
// Chrome trace_event JSON to w — the `bridgebench -trace` artifact.
func WriteObsTrace(cfg Config, p int, w io.Writer) error {
	if err := cfg.prepare(p); err != nil {
		return err
	}
	if cfg.CacheBlocks == 0 {
		cfg.CacheBlocks = 16
	}
	_, rec, err := measureBatchedReadObs(p, cfg)
	if err != nil {
		return err
	}
	return rec.WriteChromeTrace(w)
}

// measureBatchedReadObs is measureBatchedRead with a recorder attached to
// the network and every disk for the whole run (fill included), the worst
// case for recording volume.
func measureBatchedReadObs(p int, cfg Config) (time.Duration, *obs.Recorder, error) {
	bcfg := cfg
	bcfg.ReadAhead = raStripes
	rec := obs.NewRecorder(obs.Config{}.WithDefaults())
	var perBlock time.Duration
	err := runSim(p, bcfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		cl.Net.SetRecorder(rec)
		for _, nd := range cl.Nodes {
			nd.Disk.SetRecorder(rec, int(nd.ID))
		}
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
	return perBlock, rec, err
}

// LatencyRow is one access method's per-layer latency breakdown: the mean
// span duration at each layer, computed from the op-kind histograms of an
// observed run. Client spans cover whole operations (round trips included),
// server spans the request service time, LFS spans the per-node storage
// calls, and disk spans the raw device accesses — so reading down a row
// shows where each method's time goes.
type LatencyRow struct {
	Method    string
	ClientOps int64
	Client    time.Duration // mean client-op latency
	ClientP95 time.Duration
	Server    time.Duration // mean server service time
	LFS       time.Duration // mean per-node storage call
	Disk      time.Duration // mean device access
}

// layerMean returns the count-weighted mean duration across every
// histogram whose kind carries the layer prefix ("client.", "server.", ...).
func layerMean(hists []obs.HistSnapshot, prefix string) (time.Duration, int64) {
	var total time.Duration
	var count int64
	for _, h := range hists {
		if strings.HasPrefix(h.Kind, prefix) {
			total += h.Total
			count += h.Count
		}
	}
	if count == 0 {
		return 0, 0
	}
	return total / time.Duration(count), count
}

// layerP95 returns the largest P95 across the layer's histograms — the
// slow tail of the layer's dominant op kind.
func layerP95(hists []obs.HistSnapshot, prefix string) time.Duration {
	var p95 time.Duration
	for _, h := range hists {
		if strings.HasPrefix(h.Kind, prefix) && h.P95 > p95 {
			p95 = h.P95
		}
	}
	return p95
}

// measureObserved runs fn against a fresh observed cluster (recorder
// attached after the fill, so only the measured access pattern lands in
// the histograms) and returns the run's histogram snapshots.
func measureObserved(p int, cfg Config, fn func(proc sim.Proc, c *core.Client) error) ([]obs.HistSnapshot, error) {
	rec := obs.NewRecorder(obs.Config{}.WithDefaults())
	err := runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		if err := fill(proc, c, cfg, "src"); err != nil {
			return err
		}
		cl.Net.SetRecorder(rec)
		for _, nd := range cl.Nodes {
			nd.Disk.SetRecorder(rec, int(nd.ID))
		}
		return fn(proc, c)
	})
	if err != nil {
		return nil, err
	}
	return rec.Histograms(), nil
}

// LatencyBreakdown measures the per-layer latency of the three access
// methods the paper compares — per-block naive read, batched naive read,
// and the parallel copy tool — at the first configured processor count.
func LatencyBreakdown(cfg Config) ([]LatencyRow, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	if cfg.CacheBlocks == 0 {
		cfg.CacheBlocks = 16
	}
	p := cfg.Ps[0]
	n := cfg.Records

	type method struct {
		name string
		cfg  Config
		run  func(proc sim.Proc, c *core.Client) error
	}
	naiveCfg := cfg // no read-ahead: the paper's one-block-per-round-trip read
	batchCfg := cfg
	batchCfg.ReadAhead = raStripes
	methods := []method{
		{"naive read", naiveCfg, func(proc sim.Proc, c *core.Client) error {
			if _, err := c.Open("src"); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if _, eof, err := c.SeqRead("src"); err != nil {
					return err
				} else if eof {
					return fmt.Errorf("early EOF at block %d", i)
				}
			}
			return nil
		}},
		{"batched read", batchCfg, func(proc sim.Proc, c *core.Client) error {
			if _, err := c.Open("src"); err != nil {
				return err
			}
			got := 0
			for {
				blocks, eof, err := c.SeqReadN("src", 4*p)
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
		}},
		{"copy tool", cfg, func(proc sim.Proc, c *core.Client) error {
			st, err := tools.Copy(proc, c, "src", "dst")
			if err != nil {
				return err
			}
			if st.Blocks != int64(n) {
				return fmt.Errorf("copied %d blocks, want %d", st.Blocks, n)
			}
			return nil
		}},
	}

	rows := make([]LatencyRow, 0, len(methods))
	for _, m := range methods {
		hists, err := measureObserved(p, m.cfg, m.run)
		if err != nil {
			return nil, fmt.Errorf("latency breakdown %q: %w", m.name, err)
		}
		row := LatencyRow{Method: m.name}
		row.Client, row.ClientOps = layerMean(hists, "client.")
		row.ClientP95 = layerP95(hists, "client.")
		row.Server, _ = layerMean(hists, "server.")
		row.LFS, _ = layerMean(hists, "lfs.")
		row.Disk, _ = layerMean(hists, "disk.")
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderObsOverhead writes the observability-overhead comparison.
func RenderObsOverhead(w io.Writer, pts []ObsOverheadPoint, records int) {
	fmt.Fprintf(w, "Observability overhead: batched naive read of a %d-block file (per block)\n", records)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "p\tno obs\tobs on\toverhead")
	for _, pt := range pts {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.1f%%\n", pt.P, fmtDur(pt.Plain), fmtDur(pt.Observed), pt.Overhead()*100)
	}
	tw.Flush()
	fmt.Fprintln(w, "(spans charge no simulated time; any overhead is a bug)")
}

// RenderLatencyBreakdown writes the per-layer latency table.
func RenderLatencyBreakdown(w io.Writer, rows []LatencyRow, p, records int) {
	fmt.Fprintf(w, "Per-layer mean latency per span, %d records, p=%d (client spans are whole ops):\n", records, p)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "method\tclient ops\tclient mean\tclient p95\tserver\tlfs\tdisk")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\n",
			r.Method, r.ClientOps, fmtDur(r.Client), fmtDur(r.ClientP95),
			fmtDur(r.Server), fmtDur(r.LFS), fmtDur(r.Disk))
	}
	tw.Flush()
}

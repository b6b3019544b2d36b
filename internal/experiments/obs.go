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
	"time"

	"bridge/internal/core"
	"bridge/internal/obs"
	"bridge/internal/sim"
	"bridge/internal/tools"
)

// ObsOverhead measures the batched sequential read twice per processor
// count — plain, then with a recorder capturing every span.
func ObsOverhead(cfg Config) ([]OverheadPoint, error) {
	cfg.smallCache()
	return overheads(cfg, func(p int, cfg Config, on bool) (time.Duration, error) {
		var rec *obs.Recorder
		if on {
			rec = newRecorder()
		}
		return batchedRead(p, cfg, rec)
	})
}

// WriteObsTrace runs the observed batched read at p and writes the run's
// Chrome trace_event JSON to w — the `bridgebench -trace` artifact.
func WriteObsTrace(cfg Config, p int, w io.Writer) error {
	if err := cfg.prepare(p); err != nil {
		return err
	}
	cfg.smallCache()
	rec := newRecorder()
	if _, err := batchedRead(p, cfg, rec); err != nil {
		return err
	}
	return rec.WriteChromeTrace(w)
}

func newRecorder() *obs.Recorder { return obs.NewRecorder(obs.Config{}.WithDefaults()) }

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
	rec := newRecorder()
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
	cfg.smallCache()
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
			return readAllN(c, "src", p, n)
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

func obsReport(pts []OverheadPoint, cfg Config) Report {
	last := pts[len(pts)-1]
	return Report{
		Tables:  []Table{overheadTable(fmt.Sprintf("Batched naive read of a %d-block file, per block, with and without the span recorder on the network and every disk:", cfg.Records), "obs", pts)},
		Summary: fmt.Sprintf("recording costs the batched read %.1f%% at p = %d", last.Overhead()*100, last.P),
	}
}

func latencyReport(rows []LatencyRow, cfg Config) Report {
	naive, tool := rows[0], rows[len(rows)-1]
	return Report{
		Tables: []Table{{
			Caption: fmt.Sprintf("Mean span duration per layer, %d records, p = %d; client spans are whole operations:", cfg.Records, cfg.Ps[0]),
			Header:  []string{"method", "client ops", "client mean", "client p95", "server", "lfs", "disk"},
			Rows: cells(rows, func(r LatencyRow) []string {
				return []string{r.Method, fmt.Sprint(r.ClientOps), fmtDur(r.Client), fmtDur(r.ClientP95), fmtDur(r.Server), fmtDur(r.LFS), fmtDur(r.Disk)}
			}),
		}},
		Summary: fmt.Sprintf("the naive read makes %d client calls of %s over storage calls of %s; the copy tool makes %d",
			naive.ClientOps, fmtDur(naive.Client), fmtDur(naive.LFS), tool.ClientOps),
	}
}

// Command bridgeperf is the CI perf-regression gate: it runs the
// quick-scale experiments (reads, writes, the copy and sort tools, scrub,
// journal, failover, sharding) under the deterministic virtual clock,
// writes their simulated-time metrics as JSON, and fails
// if the batched read path loses its headline speedup or if any metric
// regresses against a committed baseline.
//
// Usage:
//
//	bridgeperf [-out BENCH.json] [-check BENCH.json] [-tolerance 0.10] [-trace out.json]
//
// -trace additionally writes the observed batched-read run's Chrome
// trace_event JSON (load in about://tracing or Perfetto).
//
// Because every metric is simulated time, runs are exactly reproducible:
// the committed baseline only changes when the code's performance does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"bridge/internal/experiments"
)

// Report is the BENCH.json schema. All *SimMs fields are simulated
// milliseconds (lower is better); RecPerSec is simulated throughput
// (higher is better).
type Report struct {
	// PR is frozen at 10, the last PR that named the baseline after itself;
	// the field stays so that renaming the file moved none of its bytes.
	PR    int    `json:"pr"`
	Scale string `json:"scale"`
	P     int    `json:"p"`

	NaiveReadBlkSimMs   float64 `json:"naive_read_blk_sim_ms"`
	BatchedReadBlkSimMs float64 `json:"batched_read_blk_sim_ms"`
	BatchedReadSpeedup  float64 `json:"batched_read_speedup"`

	CopyToolSimMs  float64 `json:"copy_tool_sim_ms"`
	CopyRecPerSec  float64 `json:"copy_rec_per_sec"`
	WriteBlkSimMs  float64 `json:"write_blk_sim_ms"`
	CreateSimMs    float64 `json:"create_sim_ms"`
	DeleteTotSimMs float64 `json:"delete_total_sim_ms"`

	// The sort tool (Table 4) at the same scale: its local phase, three
	// runs of 32 / 32 / 16 records a node joined two at a time, and its
	// three token-ring merge passes.
	SortLocalSimMs float64 `json:"sort_local_sim_ms"`
	SortMergeSimMs float64 `json:"sort_merge_sim_ms"`

	// Integrity costs: the same batched read with every node's idle-time
	// scrubber running, and the fraction it adds over the plain run.
	BatchedReadScrubBlkSimMs float64 `json:"batched_read_scrub_blk_sim_ms"`
	ScrubOverheadFrac        float64 `json:"scrub_overhead_frac"`

	// Observability costs: the same batched read with the span recorder
	// attached to the network and every disk, and the fraction it adds.
	// Spans charge no simulated time, so this must stay ~0.
	BatchedReadObsBlkSimMs float64 `json:"batched_read_obs_blk_sim_ms"`
	ObsOverheadFrac        float64 `json:"obs_overhead_frac"`

	// Durability costs: the batched append path on plain volumes and on
	// volumes with the write-ahead intent journal, and the fraction the
	// journal adds. Group commit plus write-back buffering is expected to
	// keep this at or below zero; the gate allows at most 5%.
	BatchedWriteBlkSimMs    float64 `json:"batched_write_blk_sim_ms"`
	BatchedWriteJnlBlkSimMs float64 `json:"batched_write_jnl_blk_sim_ms"`
	JournalOverheadFrac     float64 `json:"journal_overhead_frac"`

	// Write-path campaign: sequential appends through the write-behind
	// group-commit cache versus synchronous per-block appends, the
	// tool-mode parallel delete versus the server's serial chain walk,
	// and Reed–Solomon RS(6,2) append cost and storage overhead versus
	// the 2x mirror.
	WBWriteBlkSimMs      float64 `json:"wb_write_blk_sim_ms"`
	WBWriteSpeedup       float64 `json:"wb_write_speedup"`
	PDeleteTotSimMs      float64 `json:"pdelete_total_sim_ms"`
	PDeleteSpeedup       float64 `json:"pdelete_speedup"`
	MirrorAppendBlkSimMs float64 `json:"mirror_append_blk_sim_ms"`
	RSAppendBlkSimMs     float64 `json:"rs_append_blk_sim_ms"`
	RSStorageOverhead    float64 `json:"rs_storage_overhead"`

	// Metadata HA: a replicated-mode leader-served Open, and the
	// client-observed outage from a leader kill-9 to the first successful
	// post-election Open (dead-leader timeout + election + takeover).
	ReplicatedOpenSimMs float64 `json:"replicated_open_sim_ms"`
	FailoverSimMs       float64 `json:"failover_sim_ms"`

	// Directory sharding: aggregate create/stat/stat/delete throughput
	// under concurrent clients at 1 versus 4 shard groups (Replicas=3
	// each, zero-latency disks so only the metadata path is measured),
	// and the scaling ratio between them.
	MetaOps1ShardPerSec float64 `json:"meta_ops_1shard_per_sec"`
	MetaOps4ShardPerSec float64 `json:"meta_ops_4shard_per_sec"`
	ShardScaling        float64 `json:"shard_scaling"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bridgeperf:", err)
		os.Exit(1)
	}
}

func simMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func run() error {
	var (
		out       = flag.String("out", "BENCH.json", "where to write the metrics report")
		check     = flag.String("check", "", "baseline report to compare against (empty = no comparison)")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional regression per metric")
		traceOut  = flag.String("trace", "", "write the observed batched-read run's Chrome trace JSON here")
	)
	flag.Parse()

	const p = 8
	cfg := experiments.QuickScale()
	cfg.Ps = []int{p}

	t2, err := experiments.Table2(cfg)
	if err != nil {
		return fmt.Errorf("table2: %w", err)
	}
	pt := t2.Points[0]
	copyRows, err := experiments.Table3Copy(cfg)
	if err != nil {
		return fmt.Errorf("table3: %w", err)
	}
	cp := copyRows[0]
	sortRows, err := experiments.Table4Sort(cfg)
	if err != nil {
		return fmt.Errorf("table4: %w", err)
	}
	sr := sortRows[0]
	scrub, err := experiments.ScrubOverhead(cfg)
	if err != nil {
		return fmt.Errorf("scrub overhead: %w", err)
	}
	so := scrub[0]
	obsPts, err := experiments.ObsOverhead(cfg)
	if err != nil {
		return fmt.Errorf("obs overhead: %w", err)
	}
	oo := obsPts[0]
	jnlPts, err := experiments.JournalOverhead(cfg)
	if err != nil {
		return fmt.Errorf("journal overhead: %w", err)
	}
	jo := jnlPts[0]
	wcPts, err := experiments.WriteCampaign(cfg)
	if err != nil {
		return fmt.Errorf("write campaign: %w", err)
	}
	wc := wcPts[0]
	foPts, err := experiments.Failover(cfg)
	if err != nil {
		return fmt.Errorf("failover: %w", err)
	}
	fo := foPts[0]
	msRows, err := experiments.MetadataScaling(cfg, p, 8, 24, []int{1, 4})
	if err != nil {
		return fmt.Errorf("metadata scaling: %w", err)
	}

	rep := Report{
		PR:                  10,
		Scale:               "quick",
		P:                   p,
		NaiveReadBlkSimMs:   simMs(pt.ReadPerBlock),
		BatchedReadBlkSimMs: simMs(pt.ReadBatchPerBlock),
		CopyToolSimMs:       simMs(cp.Time),
		CopyRecPerSec:       cp.RecPerSec,
		WriteBlkSimMs:       simMs(pt.WritePerBlock),
		CreateSimMs:         simMs(pt.CreateTime),
		DeleteTotSimMs:      simMs(pt.DeleteTotal),
		SortLocalSimMs:      simMs(sr.Local),
		SortMergeSimMs:      simMs(sr.Merge),

		BatchedReadScrubBlkSimMs: simMs(so.Scrubbed),
		ScrubOverheadFrac:        so.Overhead(),

		BatchedReadObsBlkSimMs: simMs(oo.Observed),
		ObsOverheadFrac:        oo.Overhead(),

		BatchedWriteBlkSimMs:    simMs(jo.Plain),
		BatchedWriteJnlBlkSimMs: simMs(jo.Journaled),
		JournalOverheadFrac:     jo.Overhead(),

		WBWriteBlkSimMs:      simMs(wc.WBWritePerBlock),
		WBWriteSpeedup:       wc.WriteSpeedup(),
		PDeleteTotSimMs:      simMs(wc.ParallelDeleteTotal),
		PDeleteSpeedup:       wc.DeleteSpeedup(),
		MirrorAppendBlkSimMs: simMs(wc.MirrorAppendPerBlock),
		RSAppendBlkSimMs:     simMs(wc.RSAppendPerBlock),
		RSStorageOverhead:    wc.RSOverhead,

		ReplicatedOpenSimMs: simMs(fo.SteadyOpen),
		FailoverSimMs:       simMs(fo.FailoverTime),

		MetaOps1ShardPerSec: msRows[0].OpsPerSec,
		MetaOps4ShardPerSec: msRows[1].OpsPerSec,
	}
	if rep.BatchedReadBlkSimMs > 0 {
		rep.BatchedReadSpeedup = rep.NaiveReadBlkSimMs / rep.BatchedReadBlkSimMs
	}
	if rep.MetaOps1ShardPerSec > 0 {
		rep.ShardScaling = rep.MetaOps4ShardPerSec / rep.MetaOps1ShardPerSec
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("naive read  %8.3f ms/blk\nbatched read%8.3f ms/blk (%.1fx)\nwith scrub  %8.3f ms/blk (+%.1f%%)\nwith obs    %8.3f ms/blk (+%.1f%%)\nbatched write%7.3f ms/blk\nwith journal%8.3f ms/blk (%+.1f%%)\ncopy tool   %8.0f ms (%.0f rec/s)\nsort tool   %8.0f ms local + %.0f ms merge\nwb write    %8.3f ms/blk (%.1fx)\npar. delete %8.0f ms (%.1fx)\nRS(6,2) app %8.3f ms/blk (%.3fx storage; mirror %.3f ms/blk at 2x)\nrepl. open  %8.3f ms\nfailover    %8.0f ms outage\nmeta ops/s  %8.0f at 1 shard, %.0f at 4 shards (%.1fx)\nwrote %s\n",
		rep.NaiveReadBlkSimMs, rep.BatchedReadBlkSimMs, rep.BatchedReadSpeedup,
		rep.BatchedReadScrubBlkSimMs, 100*rep.ScrubOverheadFrac,
		rep.BatchedReadObsBlkSimMs, 100*rep.ObsOverheadFrac,
		rep.BatchedWriteBlkSimMs, rep.BatchedWriteJnlBlkSimMs, 100*rep.JournalOverheadFrac,
		rep.CopyToolSimMs, rep.CopyRecPerSec,
		rep.SortLocalSimMs, rep.SortMergeSimMs,
		rep.WBWriteBlkSimMs, rep.WBWriteSpeedup,
		rep.PDeleteTotSimMs, rep.PDeleteSpeedup,
		rep.RSAppendBlkSimMs, rep.RSStorageOverhead, rep.MirrorAppendBlkSimMs,
		rep.ReplicatedOpenSimMs, rep.FailoverSimMs,
		rep.MetaOps1ShardPerSec, rep.MetaOps4ShardPerSec, rep.ShardScaling, *out)

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := experiments.WriteObsTrace(cfg, p, f); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s\n", *traceOut)
	}

	// Headline gate: the batched naive read must stay >= 3x cheaper per
	// block than the per-block naive read at p=8.
	if rep.BatchedReadSpeedup < 3.0 {
		return fmt.Errorf("batched read speedup %.2fx fell below the required 3x", rep.BatchedReadSpeedup)
	}
	// Integrity gate: checksums + the idle-time scrubber may cost at most
	// 5% on the batched naive read path at p=8.
	if rep.ScrubOverheadFrac > 0.05 {
		return fmt.Errorf("scrub overhead %.1f%% on the batched read exceeds the 5%% budget", 100*rep.ScrubOverheadFrac)
	}
	// Observability gate: the span recorder may cost at most 2% on the
	// batched read path. Spans charge no simulated time, so in practice
	// this is exactly 0%; the gate catches anyone adding a Sleep.
	if rep.ObsOverheadFrac > 0.02 {
		return fmt.Errorf("observability overhead %.1f%% on the batched read exceeds the 2%% budget", 100*rep.ObsOverheadFrac)
	}
	// Durability gate: the write-ahead intent journal may cost at most 5%
	// on the batched write path at p=8. Group commit plus write-back
	// buffering should keep it at or below zero.
	if rep.JournalOverheadFrac > 0.05 {
		return fmt.Errorf("journaling overhead %.1f%% on the batched write exceeds the 5%% budget", 100*rep.JournalOverheadFrac)
	}
	// Write-behind gate: group commit must make sequential appends at
	// least 5x cheaper per block than the synchronous path at p=8.
	if rep.WBWriteSpeedup < 5.0 {
		return fmt.Errorf("write-behind speedup %.2fx fell below the required 5x", rep.WBWriteSpeedup)
	}
	// Parallel-delete gate: the tool-mode delete must beat the server's
	// serial chain walk by at least 4x at p=8.
	if rep.PDeleteSpeedup < 4.0 {
		return fmt.Errorf("parallel delete speedup %.2fx fell below the required 4x", rep.PDeleteSpeedup)
	}
	// Erasure-coding gate: RS(6,2)'s measured storage overhead must stay
	// ~1.33x ((6+2)/6 plus partial-stripe rounding), far below Mirror's 2x.
	if rep.RSStorageOverhead < 1.30 || rep.RSStorageOverhead > 1.40 {
		return fmt.Errorf("RS(6,2) storage overhead %.3fx out of the ~1.33x band", rep.RSStorageOverhead)
	}
	// Overlap gates: a mirror append and an RS(6,2) append are one scatter
	// each — every copy, data block and parity cell on a different node,
	// written side by side — so each must cost at most 1.10x a plain
	// per-block write. Redundancy costs disks, not round trips.
	if rep.MirrorAppendBlkSimMs > 1.10*rep.WriteBlkSimMs {
		return fmt.Errorf("mirror append %.2f ms/block exceeds 1.10x the plain write's %.2f", rep.MirrorAppendBlkSimMs, rep.WriteBlkSimMs)
	}
	if rep.RSAppendBlkSimMs > 1.10*rep.WriteBlkSimMs {
		return fmt.Errorf("RS(6,2) append %.2f ms/block exceeds 1.10x the plain write's %.2f", rep.RSAppendBlkSimMs, rep.WriteBlkSimMs)
	}
	// Failover gate: the client-observed outage from a leader kill-9 to
	// the first successful post-election Open must stay under 3 simulated
	// seconds — one dead-leader detection timeout (1s) plus an election
	// (≤0.3s) plus the takeover's bounded effect replay, with slack. A
	// blown budget means failure detection, the election, or takeover
	// replay got slower.
	if rep.FailoverSimMs > 3000 {
		return fmt.Errorf("failover outage %.0f ms exceeds the 3000 ms budget", rep.FailoverSimMs)
	}
	// Sharding gate: four shard groups must deliver at least 2x the
	// aggregate directory-op throughput of one group under the same
	// concurrent metadata churn — the point of partitioning the
	// namespace. A blown gate means requests are no longer spreading
	// across groups, or a shared stage has become the bottleneck.
	if rep.ShardScaling < 2.0 {
		return fmt.Errorf("shard scaling %.2fx at 4 groups fell below the required 2x", rep.ShardScaling)
	}
	if *check == "" {
		return nil
	}

	baseData, err := os.ReadFile(*check)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(baseData, &base); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	// lower-is-better metrics: regression = grew past tolerance.
	lower := []struct {
		name      string
		got, want float64
	}{
		{"naive_read_blk_sim_ms", rep.NaiveReadBlkSimMs, base.NaiveReadBlkSimMs},
		{"batched_read_blk_sim_ms", rep.BatchedReadBlkSimMs, base.BatchedReadBlkSimMs},
		{"copy_tool_sim_ms", rep.CopyToolSimMs, base.CopyToolSimMs},
		{"write_blk_sim_ms", rep.WriteBlkSimMs, base.WriteBlkSimMs},
		{"create_sim_ms", rep.CreateSimMs, base.CreateSimMs},
		{"delete_total_sim_ms", rep.DeleteTotSimMs, base.DeleteTotSimMs},
		{"sort_local_sim_ms", rep.SortLocalSimMs, base.SortLocalSimMs},
		{"sort_merge_sim_ms", rep.SortMergeSimMs, base.SortMergeSimMs},
		{"batched_read_scrub_blk_sim_ms", rep.BatchedReadScrubBlkSimMs, base.BatchedReadScrubBlkSimMs},
		{"batched_read_obs_blk_sim_ms", rep.BatchedReadObsBlkSimMs, base.BatchedReadObsBlkSimMs},
		{"batched_write_blk_sim_ms", rep.BatchedWriteBlkSimMs, base.BatchedWriteBlkSimMs},
		{"batched_write_jnl_blk_sim_ms", rep.BatchedWriteJnlBlkSimMs, base.BatchedWriteJnlBlkSimMs},
		{"wb_write_blk_sim_ms", rep.WBWriteBlkSimMs, base.WBWriteBlkSimMs},
		{"pdelete_total_sim_ms", rep.PDeleteTotSimMs, base.PDeleteTotSimMs},
		{"mirror_append_blk_sim_ms", rep.MirrorAppendBlkSimMs, base.MirrorAppendBlkSimMs},
		{"rs_append_blk_sim_ms", rep.RSAppendBlkSimMs, base.RSAppendBlkSimMs},
		{"replicated_open_sim_ms", rep.ReplicatedOpenSimMs, base.ReplicatedOpenSimMs},
		{"failover_sim_ms", rep.FailoverSimMs, base.FailoverSimMs},
	}
	var failed bool
	for _, m := range lower {
		if m.want > 0 && m.got > m.want*(1+*tolerance) {
			fmt.Fprintf(os.Stderr, "REGRESSION %s: %.3f -> %.3f (+%.1f%%, tolerance %.0f%%)\n",
				m.name, m.want, m.got, 100*(m.got/m.want-1), 100**tolerance)
			failed = true
		}
	}
	if base.CopyRecPerSec > 0 && rep.CopyRecPerSec < base.CopyRecPerSec*(1-*tolerance) {
		fmt.Fprintf(os.Stderr, "REGRESSION copy_rec_per_sec: %.1f -> %.1f\n", base.CopyRecPerSec, rep.CopyRecPerSec)
		failed = true
	}
	// higher-is-better metrics: regression = shrank past tolerance.
	higher := []struct {
		name      string
		got, want float64
	}{
		{"meta_ops_1shard_per_sec", rep.MetaOps1ShardPerSec, base.MetaOps1ShardPerSec},
		{"meta_ops_4shard_per_sec", rep.MetaOps4ShardPerSec, base.MetaOps4ShardPerSec},
	}
	for _, m := range higher {
		if m.want > 0 && m.got < m.want*(1-*tolerance) {
			fmt.Fprintf(os.Stderr, "REGRESSION %s: %.1f -> %.1f (-%.1f%%, tolerance %.0f%%)\n",
				m.name, m.want, m.got, 100*(1-m.got/m.want), 100**tolerance)
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("simulated-time metrics regressed vs %s (regenerate the baseline only with an explanation)", *check)
	}
	fmt.Printf("no regressions vs %s\n", *check)
	return nil
}

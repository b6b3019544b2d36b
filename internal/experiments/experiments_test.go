package experiments

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"bridge/internal/core"
)

// tinyScale keeps the experiment tests fast while preserving structure.
func tinyScale() Config {
	c := PaperScale()
	c.Ps = []int{2, 4}
	c.Records = 64
	c.InCore = 8
	return c
}

func TestTable2Shapes(t *testing.T) {
	cfg := tinyScale()
	res, err := Table2(cfg)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	p2, p4 := res.Points[0], res.Points[1]
	// Create grows with p (sequential initiation).
	if p4.CreateTime <= p2.CreateTime {
		t.Errorf("Create not increasing in p: %v -> %v", p2.CreateTime, p4.CreateTime)
	}
	// Open roughly flat in p (parallel stats): within 2x.
	if p4.OpenTime > 2*p2.OpenTime {
		t.Errorf("Open not flat: %v -> %v", p2.OpenTime, p4.OpenTime)
	}
	// Write roughly flat in p.
	if p4.WritePerBlock > 2*p2.WritePerBlock {
		t.Errorf("Write not flat: %v -> %v", p2.WritePerBlock, p4.WritePerBlock)
	}
	// Delete total shrinks roughly with p.
	if p4.DeleteTotal >= p2.DeleteTotal {
		t.Errorf("Delete not shrinking with p: %v -> %v", p2.DeleteTotal, p4.DeleteTotal)
	}
	// Write ~ two device accesses (30ms) plus messaging: must be in the
	// ballpark of the paper's 31ms.
	if ms := float64(p2.WritePerBlock) / float64(time.Millisecond); ms < 28 || ms > 45 {
		t.Errorf("write per block = %.1fms, expected ~31-40ms", ms)
	}
	// Read well under device latency thanks to track buffering.
	if p2.ReadPerBlock >= 15*time.Millisecond {
		t.Errorf("read per block = %v, want < 15ms", p2.ReadPerBlock)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Table 2") {
		t.Error("render missing header")
	}
}

func TestTable3CopyScaling(t *testing.T) {
	cfg := tinyScale()
	rows, err := Table3Copy(cfg)
	if err != nil {
		t.Fatalf("Table3Copy: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Near-linear: p=4 should be meaningfully faster than p=2.
	ratio := float64(rows[0].Time) / float64(rows[1].Time)
	if ratio < 1.5 {
		t.Errorf("copy speedup 2->4 = %.2fx, want >= 1.5x", ratio)
	}
	var buf bytes.Buffer
	RenderCopy(&buf, rows, cfg.Records)
	if !strings.Contains(buf.String(), "Table 3") {
		t.Error("render missing header")
	}
}

func TestTable4SortScaling(t *testing.T) {
	cfg := tinyScale()
	rows, err := Table4Sort(cfg)
	if err != nil {
		t.Fatalf("Table4Sort: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Total >= rows[0].Total {
		t.Errorf("sort total not improving: p2=%v p4=%v", rows[0].Total, rows[1].Total)
	}
	var buf bytes.Buffer
	RenderSort(&buf, rows, cfg.Records)
	if !strings.Contains(buf.String(), "Table 4") {
		t.Error("render missing header")
	}
}

func TestPlacementAblation(t *testing.T) {
	cfg := tinyScale()
	rows, reorg, err := Placement(cfg)
	if err != nil {
		t.Fatalf("Placement: %v", err)
	}
	theory := func(p int) float64 { // p!/p^p
		f := 1.0
		for i := 2; i <= p; i++ {
			f *= float64(i)
		}
		for i := 0; i < p; i++ {
			f /= float64(p)
		}
		return f
	}
	for _, r := range rows {
		if r.Strategy == "round-robin" && r.DistinctFrac != 1.0 {
			t.Errorf("round-robin distinct fraction = %v", r.DistinctFrac)
		}
		if r.Strategy == "hashed" {
			if want := theory(r.P); r.DistinctFrac > want*1.5+0.05 {
				t.Errorf("p=%d: hashed distinct fraction = %v, theory %v", r.P, r.DistinctFrac, want)
			}
		}
	}
	for _, r := range reorg {
		if r.MovedChunk == 0 {
			t.Errorf("chunked growth moved no blocks at p=%d", r.P)
		}
	}
	var buf bytes.Buffer
	RenderPlacement(&buf, rows, reorg)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestCreateTreeAblation(t *testing.T) {
	cfg := tinyScale()
	cfg.Ps = []int{16}
	rows, err := CreateTree(cfg)
	if err != nil {
		t.Fatalf("CreateTree: %v", err)
	}
	if rows[0].Tree >= rows[0].Sequential {
		t.Errorf("tree create (%v) not faster than sequential (%v) at p=16", rows[0].Tree, rows[0].Sequential)
	}
	var buf bytes.Buffer
	RenderCreateTree(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestParallelOpenAblation(t *testing.T) {
	cfg := tinyScale()
	rows, err := ParallelOpen(cfg, 4, []int{1, 4, 8})
	if err != nil {
		t.Fatalf("ParallelOpen: %v", err)
	}
	// Throughput improves from t=1 to t=4, then flattens at t=8 (virtual
	// parallelism beyond p=4 cannot speed up the disks).
	if rows[1].RecPerSec <= rows[0].RecPerSec {
		t.Errorf("t=4 (%.0f rec/s) not faster than t=1 (%.0f rec/s)", rows[1].RecPerSec, rows[0].RecPerSec)
	}
	if rows[2].RecPerSec > rows[1].RecPerSec*1.5 {
		t.Errorf("t=8 (%.0f rec/s) much faster than t=4 (%.0f rec/s); lock-step missing", rows[2].RecPerSec, rows[1].RecPerSec)
	}
	var buf bytes.Buffer
	RenderParallelOpen(&buf, rows, 4, cfg.Records)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestToolVsNaiveAblation(t *testing.T) {
	cfg := tinyScale()
	rows, err := ToolVsNaive(cfg, 4)
	if err != nil {
		t.Fatalf("ToolVsNaive: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	// The tool must win against every other method, the batched naive copy
	// included: exporting the loop to the data beats batching it.
	tool := rows[4]
	for _, r := range rows[:4] {
		if tool.Time >= r.Time {
			t.Errorf("tool copy (%v) not faster than %s (%v)", tool.Time, r.Method, r.Time)
		}
	}
	// Batching the naive interface must clearly beat the per-block one.
	naive, batched := rows[1], rows[2]
	if batched.Time*2 >= naive.Time {
		t.Errorf("batched naive copy (%v) not ≥2x faster than per-block naive (%v)", batched.Time, naive.Time)
	}
	var buf bytes.Buffer
	RenderAccessMethods(&buf, rows, cfg.Records)
	if buf.Len() == 0 {
		t.Error("empty render")
	}

	// At the paper's scale the order is the paper's: tool < batched naive <
	// parallel open < naive.
	rows, err = ToolVsNaive(PaperScale(), 8)
	if err != nil {
		t.Fatalf("ToolVsNaive at paper scale: %v", err)
	}
	order := []AccessMethodRow{rows[4], rows[2], rows[3], rows[1]}
	for i := 1; i < len(order); i++ {
		if order[i-1].Time >= order[i].Time {
			t.Errorf("paper scale, p=8: %s (%v) not faster than %s (%v)", order[i-1].Method, order[i-1].Time, order[i].Method, order[i].Time)
		}
	}
}

func TestUtilization(t *testing.T) {
	cfg := tinyScale()
	rows, err := Utilization(cfg, 4)
	if err != nil {
		t.Fatalf("Utilization: %v", err)
	}
	naive, tool := rows[0], rows[1]
	if tool.AvgBusy < 3*naive.AvgBusy {
		t.Errorf("tool utilization (%.2f) not well above naive (%.2f)", tool.AvgBusy, naive.AvgBusy)
	}
	if tool.AvgBusy < 0.5 {
		t.Errorf("tool keeps disks only %.0f%% busy; expected mostly-busy", tool.AvgBusy*100)
	}
	// Load must be balanced: min and max busy close together.
	if tool.MaxBusy-tool.MinBusy > 0.2 {
		t.Errorf("tool disk load imbalanced: min %.2f max %.2f", tool.MinBusy, tool.MaxBusy)
	}
	var buf bytes.Buffer
	RenderUtilization(&buf, rows, 4, cfg.Records)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestDisorderedExperiment(t *testing.T) {
	cfg := tinyScale()
	res, err := Disordered(cfg, 4)
	if err != nil {
		t.Fatalf("Disordered: %v", err)
	}
	if res.RandChain < 5*res.RandRR {
		t.Errorf("disordered random read (%v) not much slower than interleaved (%v)", res.RandChain, res.RandRR)
	}
	if res.SeqChain > 2*res.SeqRR {
		t.Errorf("disordered sequential read (%v) should be comparable to interleaved (%v)", res.SeqChain, res.SeqRR)
	}
	var buf bytes.Buffer
	RenderDisordered(&buf, res)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestModelComparison(t *testing.T) {
	cfg := tinyScale()
	rows, err := ModelComparison(cfg)
	if err != nil {
		t.Fatalf("ModelComparison: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		e := r.Err()
		if e < -0.6 || e > 0.6 {
			t.Errorf("%s: model error %.0f%% out of range", r.Name, e*100)
		}
	}
	var buf bytes.Buffer
	RenderModel(&buf, rows, 5)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestServerScaling(t *testing.T) {
	cfg := tinyScale()
	rows, err := ServerScaling(cfg, 4, 4)
	if err != nil {
		t.Fatalf("ServerScaling: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More servers must relieve the bottleneck substantially.
	if rows[1].RecPerSec < rows[0].RecPerSec*1.5 {
		t.Errorf("2 servers (%.0f rec/s) not much faster than 1 (%.0f rec/s)", rows[1].RecPerSec, rows[0].RecPerSec)
	}
	var buf bytes.Buffer
	RenderServerScaling(&buf, rows, 4)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestScrubOverheadExperiment(t *testing.T) {
	cfg := tinyScale()
	cfg.Ps = []int{4}
	pts, err := ScrubOverhead(cfg)
	if err != nil {
		t.Fatalf("ScrubOverhead: %v", err)
	}
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	// The scrubber runs only in idle disk time: the hot read path must pay
	// essentially nothing (TestBenchGolden's gate at p = 8 is 5%).
	if over := pts[0].Overhead(); over > 0.05 {
		t.Errorf("scrub overhead = %.1f%%, want <= 5%%", over*100)
	}
	var buf bytes.Buffer
	RenderScrubOverhead(&buf, pts, cfg.Records)
	if !strings.Contains(buf.String(), "Scrub overhead") {
		t.Error("render missing header")
	}
}

func TestCorruptionRecoveryExperiment(t *testing.T) {
	cfg := tinyScale()
	pts, err := CorruptionRecovery(cfg)
	if err != nil {
		t.Fatalf("CorruptionRecovery: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if pt.Detected != pt.Injected {
			t.Errorf("p=%d: detected %d of %d injected", pt.P, pt.Detected, pt.Injected)
		}
		if pt.Repaired != pt.Injected {
			t.Errorf("p=%d: repaired %d, want %d", pt.P, pt.Repaired, pt.Injected)
		}
		if pt.Residual != 0 {
			t.Errorf("p=%d: %d residual checksum failures after repair", pt.P, pt.Residual)
		}
		if pt.SweepMs <= 0 {
			t.Errorf("p=%d: sweep took no virtual time", pt.P)
		}
	}
	var buf bytes.Buffer
	RenderCorruption(&buf, pts)
	if !strings.Contains(buf.String(), "Corruption recovery") {
		t.Error("render missing header")
	}
}

func TestFaultsAblation(t *testing.T) {
	cfg := tinyScale()
	rep, err := Faults(cfg, 4)
	if err != nil {
		t.Fatalf("Faults: %v", err)
	}
	if !rep.UnprotectedRuined {
		t.Error("unprotected file survived a node failure")
	}
	if !rep.MirrorSurvives {
		t.Error("mirror did not survive")
	}
	if !rep.ParitySurvives {
		t.Error("parity did not survive")
	}
	if rep.MirrorStorageFactor < 1.9 || rep.MirrorStorageFactor > 2.1 {
		t.Errorf("mirror storage factor = %.2f, want ~2.0", rep.MirrorStorageFactor)
	}
	if rep.ParityStorageFactor > 1.6 {
		t.Errorf("parity storage factor = %.2f, want ~p/(p-1)", rep.ParityStorageFactor)
	}
	var buf bytes.Buffer
	RenderFaults(&buf, rep)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestWriteCampaignShapes(t *testing.T) {
	cfg := tinyScale()
	cfg.Ps = []int{4, 8}
	pts, err := WriteCampaign(cfg)
	if err != nil {
		t.Fatalf("WriteCampaign: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	for _, pt := range pts {
		// Group commit must beat the synchronous append comfortably even
		// at tiny scale.
		if s := pt.WriteSpeedup(); s < 2 {
			t.Errorf("p=%d: write-behind speedup %.2fx, want >= 2x", pt.P, s)
		}
		// The tool-mode delete frees each node's column locally.
		if s := pt.DeleteSpeedup(); s < 2 {
			t.Errorf("p=%d: parallel delete speedup %.2fx, want >= 2x", pt.P, s)
		}
		// RS(p-2, 2) must never store more than the 2x mirror (at p=4 the
		// geometry is RS(2,2), which legitimately matches it).
		if pt.RSOverhead <= 1 || pt.RSOverhead > pt.MirrorOverhead {
			t.Errorf("p=%d: RS overhead %.3fx vs mirror %.1fx", pt.P, pt.RSOverhead, pt.MirrorOverhead)
		}
	}
	// RS(6,2) at p=8 sits near (6+2)/6.
	if o := pts[1].RSOverhead; o < 1.30 || o > 1.40 {
		t.Errorf("RS(6,2) overhead %.3fx, want ~1.33x", o)
	}
}

// TestProcessorCountBelowOne: every experiment rejects p < 1, whether it
// comes from cfg.Ps or its own p argument, with ErrBadArg and no panic.
func TestProcessorCountBelowOne(t *testing.T) {
	exps := []struct {
		name string
		run  func(Config, int) error
	}{
		{"Table2", func(c Config, _ int) error { _, err := Table2(c); return err }},
		{"Table3Copy", func(c Config, _ int) error { _, err := Table3Copy(c); return err }},
		{"Table4Sort", func(c Config, _ int) error { _, err := Table4Sort(c); return err }},
		{"Placement", func(c Config, _ int) error { _, _, err := Placement(c); return err }},
		{"CreateTree", func(c Config, _ int) error { _, err := CreateTree(c); return err }},
		{"ParallelOpen", func(c Config, p int) error { _, err := ParallelOpen(c, p, nil); return err }},
		{"ToolVsNaive", func(c Config, p int) error { _, err := ToolVsNaive(c, p); return err }},
		{"Faults", func(c Config, p int) error { _, err := Faults(c, p); return err }},
		{"Disordered", func(c Config, p int) error { _, err := Disordered(c, p); return err }},
		{"ServerScaling", func(c Config, p int) error { _, err := ServerScaling(c, p, 8); return err }},
		{"Utilization", func(c Config, p int) error { _, err := Utilization(c, p); return err }},
		{"ModelComparison", func(c Config, _ int) error { _, err := ModelComparison(c); return err }},
		{"WriteCampaign", func(c Config, _ int) error { _, err := WriteCampaign(c); return err }},
		{"ScrubOverhead", func(c Config, _ int) error { _, err := ScrubOverhead(c); return err }},
		{"CorruptionRecovery", func(c Config, _ int) error { _, err := CorruptionRecovery(c); return err }},
		{"ObsOverhead", func(c Config, _ int) error { _, err := ObsOverhead(c); return err }},
		{"WriteObsTrace", func(c Config, p int) error { return WriteObsTrace(c, p, io.Discard) }},
		{"LatencyBreakdown", func(c Config, _ int) error { _, err := LatencyBreakdown(c); return err }},
		{"JournalOverhead", func(c Config, _ int) error { _, err := JournalOverhead(c); return err }},
		{"Failover", func(c Config, _ int) error { _, err := Failover(c); return err }},
		{"MetadataScaling", func(c Config, p int) error { _, err := MetadataScaling(c, p, 8, 24, nil); return err }},
	}
	for _, p := range []int{0, -1} {
		for _, e := range exps {
			cfg := tinyScale()
			cfg.Ps = []int{p}
			if err := e.run(cfg, p); !errors.Is(err, core.ErrBadArg) {
				t.Errorf("%s at p = %d: %v, want ErrBadArg", e.name, p, err)
			}
		}
	}
}

package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"bridge/internal/core"
	"bridge/internal/israce"
)

// paperRun is the one paper-scale run the documents' tables and every
// claim below share: each experiment is measured the first time a test
// asks for it, then never again in this process.
var paperRun = NewRun(PaperScale())

// paper returns experiment name's paper-scale measurement. The race
// detector makes the full-scale simulation too slow to run under it.
func paper[T any](t *testing.T, name string) T {
	t.Helper()
	if israce.Enabled {
		t.Skip("paper-scale run; skipped under the race detector")
	}
	v, err := Result[T](paperRun, name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

const (
	experimentsPath = "../../EXPERIMENTS.md"
	docUpdate       = "UPDATE_BENCH=1 go test ./internal/experiments -run TestExperimentsDocUpToDate"
	docMarker       = "generated by TestExperimentsDocUpToDate: "
)

// docBlock returns the markers around the generated block name.
func docBlock(name string) (begin, end string) {
	return "<!-- BEGIN " + docMarker + name + " -->\n", "<!-- END " + docMarker + name + " -->\n"
}

// TestExperimentsDocUpToDate regenerates every experiment's block of
// EXPERIMENTS.md, and README's results table of their summaries, from the
// paper-scale run, and requires the documents to hold exactly that.
func TestExperimentsDocUpToDate(t *testing.T) {
	if israce.Enabled {
		t.Skip("paper-scale run; skipped under the race detector")
	}
	docs := map[string]string{}
	for _, path := range []string{experimentsPath, readmePath} {
		b, err := os.ReadFile(path)
		must(t, err)
		docs[path] = string(b)
	}
	if n := strings.Count(docs[experimentsPath], "<!-- BEGIN "+docMarker); n != len(Experiments) {
		t.Errorf("%s holds %d generated blocks, want one per experiment (%d)", experimentsPath, n, len(Experiments))
	}
	var stale []string
	update := func(path, name, body string) {
		begin, end := docBlock(name)
		doc, old, ok := splice(docs[path], begin, end, body)
		switch {
		case !ok:
			t.Errorf("%s has no %q … %q block", path, begin, end)
		case old != body:
			stale = append(stale, fmt.Sprintf("%s block %q", path, name))
		}
		docs[path] = doc
	}
	results := "| experiment | artifact | summary at paper scale |\n|---|---|---|\n"
	for _, e := range Experiments {
		rep, err := paperRun.Report(e.Name)
		must(t, err)
		var b strings.Builder
		rep.WriteMarkdown(&b)
		update(experimentsPath, e.Name, b.String())
		results += fmt.Sprintf("| `%s` | %s | %s |\n", e.Name, e.Title, rep.Summary)
	}
	update(readmePath, "results", results)

	if os.Getenv("UPDATE_BENCH") != "" {
		for path, doc := range docs {
			must(t, os.WriteFile(path, []byte(doc), 0o644))
		}
		return
	}
	for _, s := range stale {
		t.Errorf("%s is stale; regenerate with %s", s, docUpdate)
	}
}

// The tests below are the claims EXPERIMENTS.md names, each held on the
// same paper-scale numbers the documents print.

func TestTable2Shapes(t *testing.T) {
	res := paper[*Table2Result](t, "table2")
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	// Create is linear in p: sequential initiation and termination.
	if res.CreateSlope <= 0 || last.CreateTime <= first.CreateTime {
		t.Errorf("Create not growing with p: slope %.2f ms/p, %v at p=%d, %v at p=%d",
			res.CreateSlope, first.CreateTime, first.P, last.CreateTime, last.P)
	}
	for _, pt := range res.Points {
		// Open stays below the paper's flat 80 ms.
		if pt.OpenTime >= 80*time.Millisecond {
			t.Errorf("p=%d: Open %v, not below the paper's 80 ms", pt.P, pt.OpenTime)
		}
		// Write is flat in p: two device accesses plus messaging.
		if d := math.Abs(float64(pt.WritePerBlock)/float64(first.WritePerBlock) - 1); d > 0.05 {
			t.Errorf("p=%d: Write %v, %.0f%% off its %v at p=%d: not flat", pt.P, pt.WritePerBlock, d*100, first.WritePerBlock, first.P)
		}
		// Delete is hyperbolic in p: one constant c in c·n/p.
		if d := math.Abs(pt.DeleteCoeff/res.DeleteCoeffMean - 1); d > 0.05 {
			t.Errorf("p=%d: Delete c = %.1f, %.0f%% off the mean %.1f: not c·n/p", pt.P, pt.DeleteCoeff, d*100, res.DeleteCoeffMean)
		}
		// Full-track buffering amortises the read below one device access.
		if pt.ReadPerBlock >= 15*time.Millisecond {
			t.Errorf("p=%d: read %v a block, not below the 15 ms device time", pt.P, pt.ReadPerBlock)
		}
	}
	// The batched read gets cheaper with every doubling of p.
	for i := 1; i < len(res.Points); i++ {
		if a, b := res.Points[i-1], res.Points[i]; b.ReadBatchPerBlock > a.ReadBatchPerBlock {
			t.Errorf("batched read %v at p=%d, dearer than %v at p=%d", b.ReadBatchPerBlock, b.P, a.ReadBatchPerBlock, a.P)
		}
	}
}

func TestTable3CopyScaling(t *testing.T) {
	// Near-linear speedup through p = 32, as in the paper's figure.
	for _, r := range paper[[]CopyRow](t, "table3") {
		if r.Speedup < 0.9*float64(r.P) {
			t.Errorf("p=%d: copy speedup %.1f, below 0.9p", r.P, r.Speedup)
		}
	}
}

func TestTable4SortScaling(t *testing.T) {
	rows := paper[[]SortRow](t, "table4")
	first, last := rows[0], rows[len(rows)-1]
	widen := float64(last.P) / float64(first.P)
	// Shrinking n/p below the in-core buffer removes whole merge passes:
	// the local phase improves faster than p grows.
	if got := float64(first.Local) / float64(last.Local); got <= widen {
		t.Errorf("local phase %.1f× faster from p=%d to %d, not super-linear (> %.0f×)", got, first.P, last.P, widen)
	}
	// The token-bound merge improves more slowly than p grows.
	if got := float64(first.Merge) / float64(last.Merge); got >= widen {
		t.Errorf("merge phase %.1f× faster from p=%d to %d, not sub-linear", got, first.P, last.P)
	}
	// One crossover: the local phase dominates at small p, the merge once
	// p is large, and once ahead the merge stays ahead.
	if first.Merge >= first.Local || last.Merge <= last.Local {
		t.Errorf("no crossover: local/merge %v/%v at p=%d, %v/%v at p=%d", first.Local, first.Merge, first.P, last.Local, last.Merge, last.P)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Merge > rows[i-1].Local && rows[i].Merge <= rows[i].Local {
			t.Errorf("merge ahead at p=%d, behind again at p=%d", rows[i-1].P, rows[i].P)
		}
	}
}

func TestPlacementAblation(t *testing.T) {
	res := paper[*PlacementResult](t, "placement")
	theory := func(p int) float64 { // p!/p^p
		f := 1.0
		for i := 1; i <= p; i++ {
			f *= float64(i) / float64(p)
		}
		return f
	}
	for _, r := range res.Windows {
		switch r.Strategy {
		case "round-robin": // guaranteed
			if r.DistinctFrac != 1 || r.MeanMaxLoad != 1 {
				t.Errorf("p=%d: round-robin distinct fraction %v, max load %v", r.P, r.DistinctFrac, r.MeanMaxLoad)
			}
		case "hashed": // "extremely low": balls in bins
			if want := theory(r.P); r.DistinctFrac > want*1.5+0.05 {
				t.Errorf("p=%d: hashed distinct fraction %v, theory %v", r.P, r.DistinctFrac, want)
			}
		case "chunked": // sequential windows serialise entirely
			if r.DistinctFrac != 0 {
				t.Errorf("p=%d: chunked distinct fraction %v", r.P, r.DistinctFrac)
			}
		}
	}
	for _, r := range res.Growth {
		if r.MovedRR != 0 || r.MovedChunk == 0 {
			t.Errorf("p=%d: growth moved %d round-robin and %d chunked blocks", r.P, r.MovedRR, r.MovedChunk)
		}
	}
}

func TestCreateTreeAblation(t *testing.T) {
	rows := paper[[]CreateTreeRow](t, "createtree")
	// O(log p) against O(p): the tree's extra hops lose at small p, and it
	// wins from the crossover on.
	if first := rows[0]; first.Tree <= first.Sequential {
		t.Errorf("p=%d: tree create %v not dearer than sequential %v", first.P, first.Tree, first.Sequential)
	}
	if last := rows[len(rows)-1]; last.Tree >= last.Sequential {
		t.Errorf("p=%d: tree create %v not faster than sequential %v", last.P, last.Tree, last.Sequential)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Tree < rows[i-1].Sequential && rows[i].Tree >= rows[i].Sequential {
			t.Errorf("tree wins at p=%d, loses again at p=%d", rows[i-1].P, rows[i].P)
		}
	}
}

func TestParallelOpenAblation(t *testing.T) {
	rows := paper[[]ParallelOpenRow](t, "popen")
	// Throughput rises with every doubling of the job width up to p, then
	// flattens: past p the server runs the workers in lock-step groups.
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		gain := b.RecPerSec / a.RecPerSec
		if b.T <= fixedP && gain < 1.2 {
			t.Errorf("t=%d→%d: throughput ×%.2f, want ≥ 1.2 up to t = p", a.T, b.T, gain)
		}
		if a.T >= fixedP && gain > 1.1 {
			t.Errorf("t=%d→%d: throughput ×%.2f, want ≤ 1.1 past t = p", a.T, b.T, gain)
		}
	}
}

func TestToolVsNaiveAblation(t *testing.T) {
	rows := paper[[]AccessMethodRow](t, "methods")
	seq, naive, batched, job, tool := rows[0], rows[1], rows[2], rows[3], rows[4]
	// The paper's order: tool < batched naive < parallel open < naive.
	order := []AccessMethodRow{tool, batched, job, naive}
	for i := 1; i < len(order); i++ {
		if order[i-1].Time >= order[i].Time {
			t.Errorf("%s (%v) not faster than %s (%v)", order[i-1].Method, order[i-1].Time, order[i].Method, order[i].Time)
		}
	}
	// Striping alone buys nothing when every block funnels through one
	// server and one client.
	if d := math.Abs(float64(naive.Time)/float64(seq.Time) - 1); d > 0.05 {
		t.Errorf("naive copy on %d nodes %v, %.0f%% off the sequential file system's %v", naive.P, naive.Time, d*100, seq.Time)
	}
	if f := float64(naive.Time) / float64(tool.Time); f < 10 {
		t.Errorf("tool copy only %.1f× the naive copy, want ≥ 10×", f)
	}
}

func TestUtilization(t *testing.T) {
	rows := paper[[]UtilizationRow](t, "utilization")
	naive, tool := rows[0], rows[1]
	// The naive path leaves the disks idle behind the one server; the
	// tool keeps every disk busy, evenly.
	if naive.AvgBusy > 0.15 {
		t.Errorf("naive copy keeps the disks %.0f%% busy, want ≤ 15%%", naive.AvgBusy*100)
	}
	if tool.MinBusy < 0.9 || tool.MaxBusy-tool.MinBusy > 0.05 {
		t.Errorf("tool disk load %.0f%%–%.0f%%, want every disk ≥ 90%% busy and within 5 points", tool.MinBusy*100, tool.MaxBusy*100)
	}
}

func TestDisorderedExperiment(t *testing.T) {
	res := paper[*DisorderedResult](t, "disordered")
	// "arbitrary scattering of blocks at the expense of very slow random
	// access": a sequential read follows the chain as fast, an append
	// pays for it, a random read walks it.
	if res.RandChain < 10*res.RandRR {
		t.Errorf("disordered random read %v not ≥ 10× the interleaved %v", res.RandChain, res.RandRR)
	}
	if float64(res.SeqChain) > 1.1*float64(res.SeqRR) {
		t.Errorf("disordered sequential read %v not within 10%% of the interleaved %v", res.SeqChain, res.SeqRR)
	}
	if res.AppendChain <= res.AppendRR {
		t.Errorf("disordered append %v not dearer than the interleaved %v", res.AppendChain, res.AppendRR)
	}
}

func TestModelComparison(t *testing.T) {
	for _, r := range paper[[]ModelRow](t, "model") {
		if e := r.Err(); math.Abs(e) > 0.05 {
			t.Errorf("%s: model %v vs simulated %v, %+.1f%% off (> 5%%)", r.Name, r.Predicted, r.Measured, e*100)
		}
	}
}

func TestServerScaling(t *testing.T) {
	rows := paper[[]ServerScalingRow](t, "servers")
	// Partitioning the namespace relieves the central server: each
	// doubling of the server processes buys at least 1.5× the rate.
	for i := 1; i < len(rows); i++ {
		if a, b := rows[i-1], rows[i]; b.RecPerSec < 1.5*a.RecPerSec {
			t.Errorf("%d servers %.0f rec/s, not ≥ 1.5× %d servers' %.0f", b.Servers, b.RecPerSec, a.Servers, a.RecPerSec)
		}
	}
}

// overheadFree checks that an addition the hot path should never wait for
// costs the batched read at most 1% at every p.
func overheadFree(t *testing.T, what string, pts []OverheadPoint) {
	for _, pt := range pts {
		if o := pt.Overhead(); o > 0.01 {
			t.Errorf("p=%d: %s costs the batched read %.1f%%, want ≤ 1%%", pt.P, what, o*100)
		}
	}
}

func TestScrubOverheadExperiment(t *testing.T) {
	// Scrub increments run only in idle disk time, which a saturating read
	// never leaves.
	overheadFree(t, "the scrubber", paper[[]OverheadPoint](t, "scrub"))
}

func TestObsOverheadExperiment(t *testing.T) {
	// Spans charge no simulated time.
	overheadFree(t, "the span recorder", paper[[]OverheadPoint](t, "obs"))
}

func TestCorruptionRecoveryExperiment(t *testing.T) {
	for _, pt := range paper[[]CorruptionPoint](t, "corruption") {
		if pt.Detected != pt.Injected || pt.Repaired != pt.Injected || pt.Residual != 0 {
			t.Errorf("p=%d: %d injected, %d detected, %d repaired, %d residual", pt.P, pt.Injected, pt.Detected, pt.Repaired, pt.Residual)
		}
		if pt.SweepMs <= 0 {
			t.Errorf("p=%d: sweep took no virtual time", pt.P)
		}
	}
}

func TestFaultsAblation(t *testing.T) {
	rep := paper[*FaultReport](t, "faults")
	if !rep.UnprotectedRuined || !rep.MirrorSurvives || !rep.ParitySurvives {
		t.Errorf("after one failure: unprotected ruined %v, mirror survives %v, parity survives %v",
			rep.UnprotectedRuined, rep.MirrorSurvives, rep.ParitySurvives)
	}
	if rep.MirrorStorageFactor < 1.9 || rep.MirrorStorageFactor > 2.1 {
		t.Errorf("mirror storage factor = %.2f, want ~2.0", rep.MirrorStorageFactor)
	}
	if want := float64(rep.P) / float64(rep.P-1); math.Abs(rep.ParityStorageFactor-want) > 0.05 {
		t.Errorf("parity storage factor = %.2f, want ~p/(p-1) = %.2f", rep.ParityStorageFactor, want)
	}
	// The copies and the parity block travel in one scatter.
	if rep.MirrorWriteFactor > 1.1 || rep.ParityWriteFactor > 1.1 {
		t.Errorf("redundant writes cost %.2f× (mirror) and %.2f× (parity) a plain one, want ≤ 1.1×", rep.MirrorWriteFactor, rep.ParityWriteFactor)
	}
}

func TestWriteCampaignShapes(t *testing.T) {
	for _, pt := range paper[[]WriteCampaignPoint](t, "writes") {
		if s := pt.WriteSpeedup(); s < 5 {
			t.Errorf("p=%d: write-behind speedup %.2fx, want >= 5x", pt.P, s)
		}
		if s := pt.DeleteSpeedup(); s < 5 {
			t.Errorf("p=%d: parallel delete speedup %.2fx, want >= 5x", pt.P, s)
		}
		// RS(p-2, 2) never stores more than the 2x mirror (at p=4 the
		// geometry is RS(2,2), which matches it), and (k+m)/k plus
		// partial-stripe rounding.
		if want := float64(pt.RSK+pt.RSM) / float64(pt.RSK); pt.RSOverhead > pt.MirrorOverhead || math.Abs(pt.RSOverhead-want) > 0.02 {
			t.Errorf("p=%d: RS overhead %.3fx vs mirror %.1fx, want ~%.3f", pt.P, pt.RSOverhead, pt.MirrorOverhead, want)
		}
		// Redundancy costs disks, not round trips.
		for _, d := range []time.Duration{pt.MirrorAppendPerBlock, pt.RSAppendPerBlock} {
			if float64(d) > 1.1*float64(pt.NaiveWritePerBlock) {
				t.Errorf("p=%d: redundant append %v, over 1.1× the plain %v", pt.P, d, pt.NaiveWritePerBlock)
			}
		}
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
		{"Placement", func(c Config, _ int) error { _, err := Placement(c); return err }},
		{"CreateTree", func(c Config, _ int) error { _, err := CreateTree(c); return err }},
		{"ParallelOpen", func(c Config, p int) error { _, err := ParallelOpen(c, p); return err }},
		{"ToolVsNaive", func(c Config, p int) error { _, err := ToolVsNaive(c, p); return err }},
		{"Faults", func(c Config, p int) error { _, err := Faults(c, p); return err }},
		{"Disordered", func(c Config, p int) error { _, err := Disordered(c, p); return err }},
		{"ServerScaling", func(c Config, p int) error { _, err := ServerScaling(c, p, 8); return err }},
		{"Utilization", func(c Config, p int) error { _, err := Utilization(c, p); return err }},
		{"ModelComparison", func(c Config, _ int) error { _, err := ModelComparison(c, &Table2Result{}, nil, nil); return err }},
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
			cfg := PaperScale()
			cfg.Ps = []int{p}
			if err := e.run(cfg, p); !errors.Is(err, core.ErrBadArg) {
				t.Errorf("%s at p = %d: %v, want ErrBadArg", e.name, p, err)
			}
		}
	}
}

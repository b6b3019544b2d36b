// Command bridgebench regenerates every table and figure of the Bridge
// paper's evaluation, plus the ablations, printing the paper's published
// numbers alongside for shape comparison.
//
// Usage:
//
//	bridgebench [-exp all|table2|table3|table4|placement|createtree|popen|methods|faults|writes|obs|latency]
//	            [-records N] [-incore N] [-ps 2,4,8,16,32] [-quick] [-trace out.json]
//
// The default is the paper's full configuration: a 10 MB file of 10240
// one-block records, 15 ms Wren-class disks, p in {2,4,8,16,32}. -quick
// runs a reduced scale that preserves every shape in seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bridge/internal/experiments"
	"bridge/internal/model"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bridgebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp      = flag.String("exp", "all", "experiment: all, table2, table3, table4, placement, createtree, popen, methods, disordered, servers, utilization, model, faults, writes, scrub, corruption, obs, latency")
		records  = flag.Int("records", 0, "records per workload file (0 = paper's 10240)")
		inCore   = flag.Int("incore", 0, "sort tool in-core buffer in records (0 = paper's 512)")
		psFlag   = flag.String("ps", "", "comma-separated processor sweep (default 2,4,8,16,32)")
		quick    = flag.Bool("quick", false, "reduced scale (shape-preserving, runs in seconds)")
		traceOut = flag.String("trace", "", "write an observed batched-read run's Chrome trace JSON here")
	)
	flag.Parse()

	cfg := experiments.PaperScale()
	if *quick {
		cfg = experiments.QuickScale()
	}
	if *records > 0 {
		cfg.Records = *records
	}
	if *inCore > 0 {
		cfg.InCore = *inCore
	}
	if *psFlag != "" {
		cfg.Ps = nil
		for _, s := range strings.Split(*psFlag, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("bad -ps value %q: %w", s, err)
			}
			cfg.Ps = append(cfg.Ps, p)
		}
	}

	w := os.Stdout
	section := func(name string) func() {
		fmt.Fprintf(w, "\n================ %s ================\n", name)
		start := time.Now()
		return func() { fmt.Fprintf(w, "[host time: %v]\n", time.Since(start).Round(time.Millisecond)) }
	}
	want := func(name string) bool { return *exp == "all" || *exp == name }

	fmt.Fprintf(w, "Bridge reproduction benchmark harness\n")
	fmt.Fprintf(w, "workload: %d records of %d bytes; disks: %v fixed latency; p sweep: %v; sort in-core: %d\n",
		cfg.Records, cfg.PayloadBytes, cfg.DiskLatency, cfg.Ps, cfg.InCore)

	if want("table2") {
		done := section("Table 2: basic operations")
		res, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		res.Render(w)
		done()
	}
	if want("table3") {
		done := section("Table 3: copy tool")
		rows, err := experiments.Table3Copy(cfg)
		if err != nil {
			return err
		}
		experiments.RenderCopy(w, rows, cfg.Records)
		done()
	}
	if want("table4") {
		done := section("Table 4: merge sort tool")
		rows, err := experiments.Table4Sort(cfg)
		if err != nil {
			return err
		}
		experiments.RenderSort(w, rows, cfg.Records)
		done()
	}
	if want("placement") {
		done := section("Ablation A1: placement strategies")
		rows, reorg, err := experiments.Placement(cfg)
		if err != nil {
			return err
		}
		experiments.RenderPlacement(w, rows, reorg)
		done()
	}
	if want("createtree") {
		done := section("Ablation A2: Create initiation")
		rows, err := experiments.CreateTree(cfg)
		if err != nil {
			return err
		}
		experiments.RenderCreateTree(w, rows)
		done()
	}
	if want("popen") {
		done := section("Ablation A3: parallel-open width")
		rows, err := experiments.ParallelOpen(cfg, 8, []int{1, 2, 4, 8, 16, 32})
		if err != nil {
			return err
		}
		experiments.RenderParallelOpen(w, rows, 8, cfg.Records)
		done()
	}
	if want("methods") {
		done := section("Ablation A4a: access methods")
		rows, err := experiments.ToolVsNaive(cfg, 8)
		if err != nil {
			return err
		}
		experiments.RenderAccessMethods(w, rows, cfg.Records)
		done()
	}
	if want("disordered") {
		done := section("Ablation A5: disordered files")
		res, err := experiments.Disordered(cfg, 8)
		if err != nil {
			return err
		}
		experiments.RenderDisordered(w, res)
		done()
	}
	if want("servers") {
		done := section("Ablation A6: distributed Bridge Servers")
		rows, err := experiments.ServerScaling(cfg, 8, 8)
		if err != nil {
			return err
		}
		experiments.RenderServerScaling(w, rows, 8)
		done()
	}
	if want("utilization") {
		done := section("Disk utilization: naive vs tool")
		rows, err := experiments.Utilization(cfg, 8)
		if err != nil {
			return err
		}
		experiments.RenderUtilization(w, rows, 8, cfg.Records)
		done()
	}
	if want("model") {
		done := section("Analytical model vs simulation")
		rows, err := experiments.ModelComparison(cfg)
		if err != nil {
			return err
		}
		m := model.Default()
		m.InCore = cfg.InCore
		experiments.RenderModel(w, rows, m.MergeSaturationWidth())
		done()
	}
	if want("faults") {
		done := section("Ablation A4b: faults, mirroring, parity")
		rep, err := experiments.Faults(cfg, 4)
		if err != nil {
			return err
		}
		experiments.RenderFaults(w, rep)
		done()
	}
	if want("writes") {
		done := section("Write campaign: group commit, parallel delete, RS k+m")
		wcfg := cfg
		if *psFlag == "" {
			wcfg.Ps = []int{4, 8, 16}
		}
		pts, err := experiments.WriteCampaign(wcfg)
		if err != nil {
			return err
		}
		experiments.RenderWriteCampaign(w, pts, wcfg.Records)
		done()
	}
	// The integrity experiments sweep p ∈ {2, 4, 8}: the recovery pipeline's
	// shape is established well before the full paper sweep.
	icfg := cfg
	if *psFlag == "" {
		icfg.Ps = []int{2, 4, 8}
	}
	if want("scrub") {
		done := section("Integrity: scrub overhead on the batched naive read")
		pts, err := experiments.ScrubOverhead(icfg)
		if err != nil {
			return err
		}
		experiments.RenderScrubOverhead(w, pts, icfg.Records)
		done()
	}
	if want("corruption") {
		done := section("Integrity: silent-corruption recovery")
		pts, err := experiments.CorruptionRecovery(icfg)
		if err != nil {
			return err
		}
		experiments.RenderCorruption(w, pts)
		done()
	}
	if want("obs") {
		done := section("Observability: recorder overhead on the batched naive read")
		pts, err := experiments.ObsOverhead(icfg)
		if err != nil {
			return err
		}
		experiments.RenderObsOverhead(w, pts, icfg.Records)
		done()
	}
	if want("latency") {
		done := section("Observability: per-layer latency breakdown")
		lcfg := cfg
		lcfg.Ps = []int{8}
		if *psFlag != "" {
			lcfg.Ps = cfg.Ps[:1]
		}
		rows, err := experiments.LatencyBreakdown(lcfg)
		if err != nil {
			return err
		}
		experiments.RenderLatencyBreakdown(w, rows, lcfg.Ps[0], lcfg.Records)
		done()
	}
	if *traceOut != "" {
		p := 8
		if *psFlag != "" {
			p = cfg.Ps[0]
		}
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
		fmt.Fprintf(w, "\nwrote Chrome trace (batched read, p=%d) to %s — load in about://tracing or Perfetto\n", p, *traceOut)
	}
	return nil
}

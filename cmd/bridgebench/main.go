// Command bridgebench regenerates every table and figure of the Bridge
// paper's evaluation, plus the ablations, printing the paper's published
// numbers alongside for shape comparison.
//
// Usage:
//
//	bridgebench [-exp all|table2|table3|table4|placement|createtree|popen|methods|disordered|servers|
//	                   utilization|model|faults|writes|scrub|corruption|obs|latency]
//	            [-records N] [-incore N] [-ps 2,4,8,16,32] [-quick] [-trace out.json]
//
// The default is the paper's full configuration: a 10 MB file of 10240
// one-block records, 15 ms Wren-class disks, p in {2,4,8,16,32}. -quick
// runs a reduced scale that preserves every shape in seconds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"bridge/internal/experiments"
	"bridge/internal/model"
)

// experiment is one -exp name: run measures and renders it over cfg.Ps,
// which is ps, the experiment's own sweep, unless -ps is given.
type experiment struct {
	name, title string
	ps          []int
	run         func(w io.Writer, cfg experiments.Config) error
}

var exps = []experiment{
	{"table2", "Table 2: basic operations", nil, func(w io.Writer, cfg experiments.Config) error {
		res, err := experiments.Table2(cfg)
		if err == nil {
			res.Render(w)
		}
		return err
	}},
	{"table3", "Table 3: copy tool", nil, func(w io.Writer, cfg experiments.Config) error {
		rows, err := experiments.Table3Copy(cfg)
		if err == nil {
			experiments.RenderCopy(w, rows, cfg.Records)
		}
		return err
	}},
	{"table4", "Table 4: merge sort tool", nil, func(w io.Writer, cfg experiments.Config) error {
		rows, err := experiments.Table4Sort(cfg)
		if err == nil {
			experiments.RenderSort(w, rows, cfg.Records)
		}
		return err
	}},
	{"placement", "Ablation A1: placement strategies", nil, func(w io.Writer, cfg experiments.Config) error {
		rows, reorg, err := experiments.Placement(cfg)
		if err == nil {
			experiments.RenderPlacement(w, rows, reorg)
		}
		return err
	}},
	{"createtree", "Ablation A2: Create initiation", nil, func(w io.Writer, cfg experiments.Config) error {
		rows, err := experiments.CreateTree(cfg)
		if err == nil {
			experiments.RenderCreateTree(w, rows)
		}
		return err
	}},
	{"popen", "Ablation A3: parallel-open width", nil, func(w io.Writer, cfg experiments.Config) error {
		rows, err := experiments.ParallelOpen(cfg, 8, []int{1, 2, 4, 8, 16, 32})
		if err == nil {
			experiments.RenderParallelOpen(w, rows, 8, cfg.Records)
		}
		return err
	}},
	{"methods", "Ablation A4a: access methods", nil, func(w io.Writer, cfg experiments.Config) error {
		rows, err := experiments.ToolVsNaive(cfg, 8)
		if err == nil {
			experiments.RenderAccessMethods(w, rows, cfg.Records)
		}
		return err
	}},
	{"disordered", "Ablation A5: disordered files", nil, func(w io.Writer, cfg experiments.Config) error {
		res, err := experiments.Disordered(cfg, 8)
		if err == nil {
			experiments.RenderDisordered(w, res)
		}
		return err
	}},
	{"servers", "Ablation A6: distributed Bridge Servers", nil, func(w io.Writer, cfg experiments.Config) error {
		rows, err := experiments.ServerScaling(cfg, 8, 8)
		if err == nil {
			experiments.RenderServerScaling(w, rows, 8)
		}
		return err
	}},
	{"utilization", "Disk utilization: naive vs tool", nil, func(w io.Writer, cfg experiments.Config) error {
		rows, err := experiments.Utilization(cfg, 8)
		if err == nil {
			experiments.RenderUtilization(w, rows, 8, cfg.Records)
		}
		return err
	}},
	{"model", "Analytical model vs simulation", nil, func(w io.Writer, cfg experiments.Config) error {
		rows, err := experiments.ModelComparison(cfg)
		if err == nil {
			m := model.Default()
			m.InCore = cfg.InCore
			experiments.RenderModel(w, rows, m.MergeSaturationWidth())
		}
		return err
	}},
	{"faults", "Ablation A4b: faults, mirroring, parity", nil, func(w io.Writer, cfg experiments.Config) error {
		rep, err := experiments.Faults(cfg, 4)
		if err == nil {
			experiments.RenderFaults(w, rep)
		}
		return err
	}},
	{"writes", "Write campaign: group commit, parallel delete, RS k+m", []int{4, 8, 16}, func(w io.Writer, cfg experiments.Config) error {
		pts, err := experiments.WriteCampaign(cfg)
		if err == nil {
			experiments.RenderWriteCampaign(w, pts, cfg.Records)
		}
		return err
	}},
	{"scrub", "Integrity: scrub overhead on the batched naive read", integrityPs, func(w io.Writer, cfg experiments.Config) error {
		pts, err := experiments.ScrubOverhead(cfg)
		if err == nil {
			experiments.RenderScrubOverhead(w, pts, cfg.Records)
		}
		return err
	}},
	{"corruption", "Integrity: silent-corruption recovery", integrityPs, func(w io.Writer, cfg experiments.Config) error {
		pts, err := experiments.CorruptionRecovery(cfg)
		if err == nil {
			experiments.RenderCorruption(w, pts)
		}
		return err
	}},
	{"obs", "Observability: recorder overhead on the batched naive read", integrityPs, func(w io.Writer, cfg experiments.Config) error {
		pts, err := experiments.ObsOverhead(cfg)
		if err == nil {
			experiments.RenderObsOverhead(w, pts, cfg.Records)
		}
		return err
	}},
	{"latency", "Observability: per-layer latency breakdown", []int{8}, func(w io.Writer, cfg experiments.Config) error {
		rows, err := experiments.LatencyBreakdown(cfg)
		if err == nil {
			experiments.RenderLatencyBreakdown(w, rows, cfg.Ps[0], cfg.Records)
		}
		return err
	}},
}

// integrityPs is the integrity and observability experiments' sweep: the
// recovery pipeline's shape is established well before the full one.
var integrityPs = []int{2, 4, 8}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bridgebench:", err)
		os.Exit(1)
	}
}

func run() error {
	names := []string{"all"}
	for _, e := range exps {
		names = append(names, e.name)
	}
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(names, ", "))
		records  = flag.Int("records", 0, "records per workload file (0 = paper's 10240)")
		inCore   = flag.Int("incore", 0, "sort tool in-core buffer in records (0 = paper's 512)")
		psFlag   = flag.String("ps", "", "comma-separated processor sweep (default 2,4,8,16,32)")
		quick    = flag.Bool("quick", false, "reduced scale (shape-preserving, runs in seconds)")
		traceOut = flag.String("trace", "", "write an observed batched-read run's Chrome trace JSON here")
	)
	flag.Parse()
	if !slices.Contains(names, *exp) {
		return fmt.Errorf("unknown -exp %q; valid: %s", *exp, strings.Join(names, ", "))
	}

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
	psSet := *psFlag != ""
	if psSet {
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
	fmt.Fprintf(w, "Bridge reproduction benchmark harness\n")
	fmt.Fprintf(w, "workload: %d records of %d bytes; disks: %v fixed latency; p sweep: %v; sort in-core: %d\n",
		cfg.Records, cfg.PayloadBytes, cfg.DiskLatency, cfg.Ps, cfg.InCore)
	for _, e := range exps {
		if *exp != "all" && *exp != e.name {
			continue
		}
		fmt.Fprintf(w, "\n================ %s ================\n", e.title)
		start := time.Now()
		ecfg := cfg
		if !psSet && e.ps != nil {
			ecfg.Ps = e.ps
		}
		if err := e.run(w, ecfg); err != nil {
			return err
		}
		fmt.Fprintf(w, "[host time: %v]\n", time.Since(start).Round(time.Millisecond))
	}
	if *traceOut != "" {
		p := 8
		if psSet {
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

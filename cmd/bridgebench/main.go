// Command bridgebench regenerates every table and figure of the Bridge
// paper's evaluation, plus the ablations, printing the paper's published
// numbers alongside for shape comparison. Each experiment prints as the
// markdown block EXPERIMENTS.md holds for it.
//
// Usage:
//
//	bridgebench [-exp all|table2|table3|...] [-ps 2,4,8,16,32] [-quick] [-trace out.json]
//
// The default is the paper's full configuration: a 10 MB file of 10240
// one-block records, 15 ms Wren-class disks, each experiment over its own
// processor sweep. -quick runs a reduced scale that preserves every shape
// in seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"bridge/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bridgebench:", err)
		os.Exit(1)
	}
}

func run() error {
	names := []string{"all"}
	for _, e := range experiments.Experiments {
		names = append(names, e.Name)
	}
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(names, ", "))
		psFlag   = flag.String("ps", "", "comma-separated processor sweep for every experiment (default: each its own)")
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
	if *psFlag != "" {
		for _, s := range strings.Split(*psFlag, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("bad -ps value %q: %w", s, err)
			}
			cfg.Ps = append(cfg.Ps, p)
		}
	}

	w := os.Stdout
	fmt.Fprintf(w, "# Bridge reproduction benchmark harness\n\nWorkload: %d records of %d bytes; disks: %v fixed latency; sort in-core: %d records.\n",
		cfg.Records, cfg.PayloadBytes, cfg.DiskLatency, cfg.InCore)
	r := experiments.NewRun(cfg)
	for _, e := range experiments.Experiments {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		rep, err := r.Report(e.Name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n## %s\n\n", e.Title)
		rep.WriteMarkdown(w)
	}
	if *traceOut != "" {
		p := 8
		if len(cfg.Ps) > 0 {
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

// Command benchmark is the Bridge repository's one benchmark: seven
// workloads, each reporting what the modelled 1988 machine would take
// (sim_*, exact for a seed) and what this Go program costs to run (host_*,
// noisy), plus a traced run that accounts for the time layer by layer.
// README.md in this directory defines every metric and workload.
//
// The benchmark driver runs it through run.sh, one workload at a time:
//
//	bash benchmark/run.sh --workload naive_read --seed 7 --seconds 10 --trace 0
//
// Without --workload it runs every workload round-robin and prints both
// metric families. It reads no environment variables.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"bridge"
)

type options struct {
	only      string
	seed      int64
	seconds   float64
	trace     int // 0: end-to-end only; 1: per-layer only; -1: both
	out       string
	traceOut  string
	selfcheck bool
	// Not flags. scale divides every file length and op count and scratch
	// is where the file-backed probes write; only the package test sets
	// them (32 and a temp dir), so a printed number is always full scale.
	scale   int
	scratch string
}

func main() {
	o := options{scale: 1, scratch: ".bench_build"}
	flag.StringVar(&o.only, "workload", "", "run only this workload (default: all, interleaved round-robin)")
	flag.StringVar(&o.only, "only", "", "alias of -workload")
	flag.Int64Var(&o.seed, "seed", 1988, "seed for payload bytes, record length, sort keys and file names")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring budget per workload, in seconds of wall clock")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced reps, end-to-end metrics; 1: traced reps and layer probes, per-layer metrics; -1: both")
	flag.StringVar(&o.out, "out", "", "write every metric of the run to this JSON file")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the benchmark's own spans to this Chrome trace file, and each workload's program spans to <trace-out minus .json>.<workload>.json")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two untraced sets back to back and compare them against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.trace < -1 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose outputs failed verification; the result
// line has been printed with "correct": false.
var errIncorrect = errors.New("a workload's outputs failed verification")

func run(o options, w io.Writer) error {
	// The virtual-clock runtime runs one simulated process at a time; a
	// second P only adds cross-core wake-ups (measured: 18-23 us/op against
	// 11 on naive_read). One P for every workload, and say so.
	runtime.GOMAXPROCS(1)
	if err := checkNames(); err != nil {
		return err
	}
	set := workloads
	if o.only != "" {
		wl := findWorkload(o.only)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", o.only)
		}
		set = []*workload{wl}
	}
	p := params{seed: o.seed, scale: o.scale}
	fmt.Fprintf(w, "bridge benchmark: seed=%d seconds=%g trace=%d GOMAXPROCS=%d workloads=%d\n",
		o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), len(set))

	if o.selfcheck {
		return selfcheck(set, p, o, w)
	}
	tr := newTracer()
	results, err := measure(set, p, o, tr)
	if err != nil {
		return err
	}
	for _, res := range results {
		printResult(w, res, o.trace)
	}
	if o.traceOut != "" {
		if err := writeFile(o.traceOut, tr.writeChrome); err != nil {
			return err
		}
	}
	if o.out != "" {
		if err := writeFile(o.out, func(f io.Writer) error { return writeReport(f, o, results) }); err != nil {
			return err
		}
	}
	return finish(w, o, results)
}

// measure runs the layer probes (when tracing) and then the workloads.
func measure(set []*workload, p params, o options, tr *tracer) ([]*result, error) {
	// Probes run first, on a small heap: after the workloads the collector
	// has hundreds of megabytes to scan and would dominate every probe.
	var probes map[string]float64
	if o.trace != 0 {
		if err := os.MkdirAll(o.scratch, 0o755); err != nil {
			return nil, err
		}
		var err error
		if probes, err = runProbes(tr, o.scratch); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	results, err := runSet(set, p, o, tr)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		for k, v := range probes {
			res.perLayer[k] = v
		}
	}
	return results, nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSet measures every workload of set. Reps are interleaved round-robin
// (rep r of every workload before rep r+1) so a multi-second burst of host
// noise lands on one rep of each workload instead of on all reps of one.
// Each workload keeps starting reps until it has used o.seconds of wall
// clock. With tracing on, odd reps are traced.
func runSet(set []*workload, p params, o options, tr *tracer) ([]*result, error) {
	traced := o.trace != 0
	reps := make([][]*rep, len(set))
	layers := make([]map[string]float64, len(set))
	spent := make([]time.Duration, len(set))
	var calib []float64
	var catalog string
	if traced {
		var err error
		if catalog, err = metricCatalog(); err != nil {
			return nil, err
		}
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	minRounds := 1 // however small the budget: one untraced rep, and one traced
	if traced {
		minRounds = 2
	}
	for round := 0; ; round++ {
		ran := false
		for i, wl := range set {
			if round >= minRounds && spent[i] >= budget {
				continue
			}
			ran = true
			calib = append(calib, float64(calibrate()))
			t0 := time.Now()
			id := tr.begin(wl.name, 0)
			r, err := runRep(wl, p, traced && round%2 == 1)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			if r.traced {
				// The first traced rep gives the per-layer numbers; later
				// ones are identical on the simulated side and only add
				// host time. Either way, let go of the system.
				if layers[i] == nil {
					if layers[i], err = tracedLayers(wl, r, catalog); err != nil {
						return nil, err
					}
					if o.traceOut != "" {
						path := strings.TrimSuffix(o.traceOut, ".json") + "." + wl.name + ".json"
						if err := writeFile(path, r.insp.WriteChromeTrace); err != nil {
							return nil, err
						}
					}
				}
				r.insp, r.before, r.after = bridge.Inspector{}, nil, nil
			}
			spent[i] += time.Since(t0)
			reps[i] = append(reps[i], r)
		}
		if !ran {
			break
		}
	}
	results := make([]*result, len(set))
	for i, wl := range set {
		res, err := fold(wl, reps[i])
		if err != nil {
			return nil, err
		}
		if traced {
			for k, v := range layers[i] {
				res.perLayer[k] = v
			}
			res.perLayer["host.calib_ns"] = quantile(calib, 0.25)
		}
		results[i] = res
	}
	return results, nil
}

func printResult(w io.Writer, res *result, trace int) {
	fmt.Fprintf(w, "\nworkload %s: %d untraced + %d traced reps, %d ops/rep, %d calls attempted, %d failed\n",
		res.workload, res.reps, res.tracedReps, res.opsPerRep, res.sim.attempted, res.sim.failed)
	if res.firstErr != nil {
		fmt.Fprintf(w, "  FIRST FAILURE: %v\n", res.firstErr)
	}
	if trace != 1 {
		for _, m := range endToEnd {
			note := ""
			switch m.Name {
			case "sim_op_tail_ms":
				note = fmt.Sprintf("  (p%.2f of %d calls)", res.sim.tail.pct, res.sim.tail.samples)
			case "host_us_per_op":
				note = fmt.Sprintf("  (fastest rep; median %.4g, IQR %.3g over %d reps)", res.hostUs.p50, res.hostUs.iqr, res.reps)
			case "setup_s":
				note = fmt.Sprintf("  (fastest rep; median %.4g, IQR %.3g)", res.setupS.p50, res.setupS.iqr)
			}
			fmt.Fprintf(w, "  %-30s %14.6f %-6s%s\n", m.Name, res.endToEnd[m.Name], m.Unit, note)
		}
	}
	if trace != 0 {
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-30s %14.6f %s\n", m.Name, res.perLayer[m.Name], m.Unit)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object the benchmark contract wants on the last line of
// standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish prints the result line. With one workload the metric names are
// bare; with several each is prefixed by its workload.
func finish(w io.Writer, o options, results []*result) error {
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	var missing []string
	for _, res := range results {
		line.Attempted += res.sim.attempted
		line.Failed += res.sim.failed
		prefix := ""
		if len(results) > 1 {
			prefix = res.workload + "."
		}
		add := func(specs []metricSpec, vals map[string]float64) {
			for _, m := range specs {
				v, ok := vals[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					missing = append(missing, res.workload+"/"+m.Name)
					continue
				}
				line.Metrics[prefix+m.Name] = metricValue{v, m.Unit}
			}
		}
		if o.trace != 1 {
			add(endToEnd, res.endToEnd)
		}
		if o.trace != 0 {
			add(perLayer, res.perLayer)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	line.Correct = line.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s\n", data)
	if !line.Correct {
		return errIncorrect
	}
	return nil
}

// writeReport writes every metric of the run, by workload, for -out.
func writeReport(w io.Writer, o options, results []*result) error {
	type wlReport struct {
		Reps      int                `json:"reps"`
		Traced    int                `json:"traced_reps"`
		OpsPerRep int                `json:"ops_per_rep"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		EndToEnd  map[string]float64 `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	}
	report := struct {
		Seed       int64               `json:"seed"`
		Seconds    float64             `json:"seconds"`
		GOMAXPROCS int                 `json:"gomaxprocs"`
		RecLen     int                 `json:"record_bytes"`
		Workloads  map[string]wlReport `json:"workloads"`
	}{o.seed, o.seconds, runtime.GOMAXPROCS(0), newInputs(o.seed, bridge.PayloadBytes).recLen, map[string]wlReport{}}
	for _, res := range results {
		report.Workloads[res.workload] = wlReport{res.reps, res.tracedReps, res.opsPerRep,
			res.sim.attempted, res.sim.failed, res.endToEnd, res.perLayer}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// selfcheck runs two untraced sets back to back and holds them to each other
// by the benchmark's own bounds: what a later change will be held to, applied
// to no change at all.
func selfcheck(set []*workload, p params, o options, w io.Writer) error {
	o.trace = 0
	var runs [2][]*result
	for i := range runs {
		var err error
		if runs[i], err = runSet(set, p, o, newTracer()); err != nil {
			return err
		}
	}
	var bad []string
	fmt.Fprintf(w, "\n%-20s %-22s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for i, a := range runs[0] {
		b := runs[1][i]
		for _, m := range endToEnd {
			x, y := a.endToEnd[m.Name], b.endToEnd[m.Name]
			diff := (y - x) / x
			verdict := ""
			switch {
			case m.exact() && x != y:
				verdict = "  NOT IDENTICAL"
			case math.Abs(y-x)/min(x, y) > m.Bound:
				// Either direction: two sets of one program that disagree
				// by more than the bound mean the bound cannot be held.
				verdict = "  OUTSIDE BOUND"
			}
			if verdict != "" {
				bad = append(bad, a.workload+"/"+m.Name)
			}
			fmt.Fprintf(w, "%-20s %-22s %14.6f %14.6f %+8.2f%% %6.1f%%%s\n",
				a.workload, m.Name, x, y, 100*diff, 100*m.Bound, verdict)
		}
		if a.sim.failed+b.sim.failed > 0 {
			bad = append(bad, a.workload+"/failed")
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck failed: %s", strings.Join(bad, ", "))
	}
	fmt.Fprintln(w, "\nselfcheck passed: simulated metrics identical, host metrics within their bounds")
	return nil
}

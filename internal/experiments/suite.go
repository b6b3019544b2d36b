package experiments

import "fmt"

// Experiment is one entry of the suite: what `bridgebench -exp Name` runs,
// and one generated block of EXPERIMENTS.md and one row of README's
// results table.
type Experiment struct {
	Name, Title string
	// Ps is the experiment's own processor sweep; nil runs the paper's.
	Ps      []int
	measure func(r *Run, cfg Config) (any, error)
	report  func(v any, cfg Config) Report
}

// entry builds an Experiment from a typed measurement and its report.
func entry[T any](name, title string, ps []int, measure func(*Run, Config) (T, error), report func(T, Config) Report) Experiment {
	return Experiment{
		Name: name, Title: title, Ps: ps,
		measure: func(r *Run, cfg Config) (any, error) { return measure(r, cfg) },
		report:  func(v any, cfg Config) Report { return report(v.(T), cfg) },
	}
}

// alone adapts a measurement that uses no other experiment's results.
func alone[T any](f func(Config) (T, error)) func(*Run, Config) (T, error) {
	return func(_ *Run, cfg Config) (T, error) { return f(cfg) }
}

// fixedP is the cluster width of the experiments that hold p fixed.
const fixedP = 8

// atFixedP adapts a measurement on a cluster of a given width to fixedP.
func atFixedP[T any](f func(Config, int) (T, error)) func(*Run, Config) (T, error) {
	return func(_ *Run, cfg Config) (T, error) { return f(cfg, fixedP) }
}

var (
	// popenWidths is A3's sweep of job widths.
	popenWidths = []int{1, 2, 4, 8, 16, 32}
	// integrityPs is the integrity and observability experiments' sweep:
	// the recovery pipeline's shape is established well before the full
	// one.
	integrityPs = []int{2, 4, 8}
)

// Experiments is the suite, in the order bridgebench prints it and
// EXPERIMENTS.md holds it.
var Experiments = []Experiment{
	entry("table2", "Table 2: basic operations", nil, alone(Table2), table2Report),
	entry("table3", "Table 3: copy tool", nil, alone(Table3Copy), copyReport),
	entry("table4", "Table 4: merge sort tool", nil, alone(Table4Sort), sortReport),
	entry("placement", "Ablation A1: placement strategies", nil, alone(Placement), placementReport),
	entry("createtree", "Ablation A2: Create initiation", nil, alone(CreateTree), createTreeReport),
	entry("popen", "Ablation A3: parallel-open width", nil, atFixedP(ParallelOpen), popenReport),
	entry("methods", "Ablation A4a: access methods", nil, atFixedP(ToolVsNaive), methodsReport),
	entry("faults", "Ablation A4b: faults, mirroring, parity", nil, func(_ *Run, cfg Config) (*FaultReport, error) {
		return Faults(cfg, 4)
	}, faultsReport),
	entry("disordered", "Ablation A5: disordered files", nil, atFixedP(Disordered), disorderedReport),
	entry("servers", "Ablation A6: distributed Bridge Servers", nil, func(_ *Run, cfg Config) ([]ServerScalingRow, error) {
		return ServerScaling(cfg, fixedP, fixedP)
	}, serverScalingReport),
	entry("utilization", "Disk utilization: naive vs tool", nil, atFixedP(Utilization), utilizationReport),
	entry("model", "Analytical model vs simulation", nil, measureModel, modelReport),
	entry("writes", "Write campaign: group commit, parallel delete, RS k+m", []int{4, 8, 16}, alone(WriteCampaign), writeCampaignReport),
	entry("scrub", "Integrity: scrub overhead on the batched naive read", integrityPs, alone(ScrubOverhead), scrubReport),
	entry("corruption", "Integrity: silent-corruption recovery", integrityPs, alone(CorruptionRecovery), corruptionReport),
	entry("obs", "Observability: recorder overhead on the batched naive read", integrityPs, alone(ObsOverhead), obsReport),
	entry("latency", "Observability: per-layer latency breakdown", []int{8}, alone(LatencyBreakdown), latencyReport),
}

// A Run measures experiments at one configuration, each at most once: the
// model comparison takes Tables 2–4 from the same run, and a test's claims
// hold on the numbers the documents print. A Run is not safe for
// concurrent use.
type Run struct {
	cfg  Config
	exps []Experiment
	memo map[string]measured
}

type measured struct {
	v   any
	err error
}

// NewRun returns a Run of the suite at cfg.
func NewRun(cfg Config) *Run {
	return &Run{cfg: cfg, exps: Experiments, memo: make(map[string]measured)}
}

// config is the run's configuration for e: cfg.Ps if set, else e's own
// sweep, else the paper's.
func (r *Run) config(e Experiment) Config {
	cfg := r.cfg
	if len(cfg.Ps) == 0 {
		cfg.Ps = e.Ps
	}
	if len(cfg.Ps) == 0 {
		cfg.Ps = paperPs
	}
	return cfg
}

// measure returns experiment name and its measurement, taken the first
// time only.
func (r *Run) measure(name string) (Experiment, any, error) {
	for _, e := range r.exps {
		if e.Name != name {
			continue
		}
		m, ok := r.memo[name]
		if !ok {
			m.v, m.err = e.measure(r, r.config(e))
			r.memo[name] = m
		}
		return e, m.v, m.err
	}
	return Experiment{}, nil, fmt.Errorf("no experiment %q", name)
}

// Report returns experiment name's report.
func (r *Run) Report(name string) (Report, error) {
	e, v, err := r.measure(name)
	if err != nil {
		return Report{}, fmt.Errorf("%s: %w", name, err)
	}
	return e.report(v, r.config(e)), nil
}

// Result returns experiment name's measurement, which must be a T.
func Result[T any](r *Run, name string) (T, error) {
	_, v, err := r.measure(name)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("%s: %w", name, err)
	}
	return v.(T), nil
}

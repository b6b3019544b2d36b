package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"bridge"
)

// params sizes one run. scale divides every file length and op count; 1 is
// the benchmark, 32 the package test's smoke scale.
type params struct {
	seed  int64
	scale int
}

func (p params) div(n int) int {
	if n/p.scale < 1 {
		return 1
	}
	return n / p.scale
}

// rep is everything one repetition of one workload measured.
type rep struct {
	traced bool

	// Simulated side: exact for a seed.
	simStart, simEnd time.Duration   // the measured phase
	ops              int             // ops in the measured phase (defined per workload)
	lat              []time.Duration // one sample per client call, ascending

	// Host side.
	setup      time.Duration // cluster boot + preload, before the phase
	host       time.Duration // wall clock of the measured phase
	mallocs    uint64
	allocBytes uint64
	liveHeap   uint64 // HeapAlloc after a forced GC, cluster still up

	allocBlocks int // blocks allocated on all nodes beyond a fresh format
	liveBlocks  int // user blocks that should be live at the end

	attempted, failed int
	firstErr          error

	// Traced reps only.
	before, after counters
	tools         toolTimes
	insp          bridge.Inspector
}

// simSpan is the simulated makespan of the measured phase.
func (r *rep) simSpan() time.Duration { return r.simEnd - r.simStart }

// toolTimes carries tool_copy_sort's own phase split (simulated time).
type toolTimes struct {
	copy, sortLocal, sortMerge time.Duration
	records                    int
}

// counters is a snapshot of the program's own counts: the shared metrics
// registry plus every node's disk and EFS registries, summed.
type counters map[string]int64

func snapshot(s *bridge.Session) counters {
	c := counters{}
	for _, v := range s.Metrics().Values {
		c[v.Name] = v.Count + int64(v.Time)
	}
	for _, n := range s.Cluster().Nodes {
		for _, v := range n.Disk.Stats().Registry().Values() {
			c[v.Name] += v.Count + int64(v.Time)
		}
		if fs := n.FS(); fs != nil {
			for _, v := range fs.Stats().Registry().Values() {
				c[v.Name] += v.Count + int64(v.Time)
			}
		}
	}
	return c
}

// meter is the handle a workload uses to mark its measured phase and time
// its client calls. Everything before begin is set-up; everything after end
// is verification outside the window.
type meter struct {
	s        *bridge.Session
	r        *rep
	repStart time.Time
	t0       time.Time
	mem0     runtime.MemStats
	base     int // blocks in use on freshly formatted volumes
}

func (m *meter) usedBlocks() int {
	used := 0
	for _, n := range m.s.Cluster().Nodes {
		if fs := n.FS(); fs != nil {
			used += n.Disk.Config().NumBlocks - fs.FreeBlocks()
		}
	}
	return used
}

// attach binds the meter to the booted session; workloads call it first.
func (m *meter) attach(s *bridge.Session) {
	m.s = s
	if m.r.traced {
		m.r.insp = s.Inspect()
	}
	// One round trip to every node, so each has finished formatting
	// before the baseline is read.
	if err := s.Sync(); err != nil {
		m.fail(fmt.Errorf("boot sync: %w", err))
	}
	m.base = m.usedBlocks()
}

// begin ends set-up and opens the measured phase. calls sizes the latency
// buffer so the window does not pay for its growth.
func (m *meter) begin(calls int) {
	m.r.lat = make([]time.Duration, 0, calls+8)
	m.r.setup = time.Since(m.repStart)
	if m.r.traced {
		m.r.before = snapshot(m.s)
	}
	m.r.simStart = m.s.Now()
	runtime.ReadMemStats(&m.mem0)
	m.t0 = time.Now()
}

// end closes the measured phase. ops is the workload's op count, live the
// user blocks it left live. finished is the simulated time the last client
// finished (the session's own clock unless other processes ran the ops).
func (m *meter) end(ops, live int, finished time.Duration) {
	m.r.host = time.Since(m.t0)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.r.mallocs = mem.Mallocs - m.mem0.Mallocs
	m.r.allocBytes = mem.TotalAlloc - m.mem0.TotalAlloc
	m.r.simEnd = finished
	m.r.ops = ops
	m.r.liveBlocks = live
	m.r.allocBlocks = m.usedBlocks() - m.base
	if m.r.traced {
		m.r.after = snapshot(m.s)
	}
	runtime.GC()
	runtime.ReadMemStats(&mem)
	m.r.liveHeap = mem.HeapAlloc
}

// call times one client call on the session's clock and counts it.
func (m *meter) call(fn func() error) error {
	return m.callAt(m.s.Now, fn)
}

// callAt is call for a client running on another simulated process, whose
// clock is now. Simulated processes run one at a time, so the shared
// sample slice needs no lock.
func (m *meter) callAt(now func() time.Duration, fn func() error) error {
	t := now()
	err := fn()
	m.r.lat = append(m.r.lat, now()-t)
	m.r.attempted++
	if err != nil {
		m.fail(err)
	}
	return err
}

// fail counts one failed call or failed output check.
func (m *meter) fail(err error) {
	m.r.failed++
	if m.r.firstErr == nil {
		m.r.firstErr = err
	}
}

// check counts one output verification outside the window.
func (m *meter) check(ok bool, format string, args ...any) {
	m.r.attempted++
	if !ok {
		m.fail(fmt.Errorf(format, args...))
	}
}

// runRep boots a fresh system and runs one repetition of w.
func runRep(w *workload, p params, traced bool) (*rep, error) {
	runtime.GC()
	r := &rep{traced: traced}
	m := &meter{r: r, repStart: time.Now()}
	in := newInputs(p.seed, bridge.PayloadBytes)
	cfg := w.config(in)
	if traced {
		// Room for every span of the largest workload: nothing may drop.
		cfg.Obs = &bridge.ObsConfig{SpanCap: 1 << 23}
	}
	sys, err := bridge.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	err = sys.Run(func(s *bridge.Session) error {
		m.attach(s)
		return w.run(s, in, p, m)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if r.ops == 0 || len(r.lat) == 0 {
		return nil, fmt.Errorf("%s: measured phase recorded no ops", w.name)
	}
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	return r, nil
}

// simValues are the metrics that must repeat exactly for one seed.
type simValues struct {
	msPerOp, p50, tailMs, maxMs, storageAmp float64
	tail                                    tail
	attempted, failed                       int
}

func (r *rep) sim() simValues {
	t := latencyTail(r.lat)
	v := simValues{
		msPerOp:   ms(r.simSpan()) / float64(r.ops),
		p50:       ms(r.lat[(len(r.lat)-1)/2]),
		tailMs:    ms(t.value),
		maxMs:     ms(r.lat[len(r.lat)-1]),
		tail:      t,
		attempted: r.attempted,
		failed:    r.failed,
	}
	v.storageAmp = float64(r.allocBlocks) / float64(r.liveBlocks)
	return v
}

// result is one workload's numbers over all its reps in a run.
type result struct {
	workload   string
	reps       int
	tracedReps int
	sim        simValues
	opsPerRep  int
	firstErr   error
	endToEnd   map[string]float64
	perLayer   map[string]float64 // nil when the run was not traced
	// Spread of the host timings, printed beside the fastest rep.
	hostUs, setupS summary
}

var errSimMismatch = errors.New("simulated metrics differ between reps of one seed")

// fold reduces a workload's reps to its end-to-end metrics. Every rep,
// traced or not, must agree exactly on the simulated side.
func fold(w *workload, reps []*rep) (*result, error) {
	res := &result{workload: w.name, endToEnd: map[string]float64{}}
	var hostUs, setupS, allocs, allocKB, heapMB []float64
	var tracedUs []float64
	for i, r := range reps {
		sv := r.sim()
		if i == 0 {
			res.sim = sv
			res.opsPerRep = r.ops
			res.firstErr = r.firstErr
		} else if sv != res.sim {
			return nil, fmt.Errorf("%s: %w: rep 0 %+v, rep %d (traced=%v) %+v",
				w.name, errSimMismatch, res.sim, i, r.traced, sv)
		}
		us := float64(r.host) / float64(time.Microsecond) / float64(r.ops)
		if r.traced {
			res.tracedReps++
			tracedUs = append(tracedUs, us)
			continue
		}
		res.reps++
		hostUs = append(hostUs, us)
		setupS = append(setupS, r.setup.Seconds())
		allocs = append(allocs, float64(r.mallocs)/float64(r.ops))
		allocKB = append(allocKB, float64(r.allocBytes)/1024/float64(r.ops))
		heapMB = append(heapMB, float64(r.liveHeap)/(1<<20))
	}
	if res.reps == 0 {
		return nil, fmt.Errorf("%s: no untraced rep completed", w.name)
	}
	res.hostUs, res.setupS = summarize(hostUs), summarize(setupS)
	e := res.endToEnd
	e["sim_ms_per_op"] = res.sim.msPerOp
	e["sim_op_p50_ms"] = res.sim.p50
	e["sim_op_tail_ms"] = res.sim.tailMs
	e["sim_op_max_ms"] = res.sim.maxMs
	e["storage_amp"] = res.sim.storageAmp
	e["host_us_per_op"] = res.hostUs.min
	e["host_allocs_per_op"] = quantile(allocs, 0.5)
	e["host_alloc_kb_per_op"] = quantile(allocKB, 0.5)
	e["host_live_heap_mb"] = quantile(heapMB, 0.5)
	e["setup_s"] = res.setupS.min
	if len(tracedUs) > 0 {
		res.perLayer = map[string]float64{
			"obs.host_overhead_frac": quantile(tracedUs, 0)/res.hostUs.min - 1,
		}
	}
	return res, nil
}

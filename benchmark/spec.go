package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"time"
)

// metricSpec names one metric. The tables below are the single source the
// program prints from; BENCHMARK.json repeats them and the package test
// asserts the two agree.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// exact reports whether the metric must be bit-identical between two runs of
// one seed. The names say so: host_* and setup_s are this machine's time and
// memory, everything else comes off the virtual clock or the block maps.
func (m metricSpec) exact() bool {
	return !strings.HasPrefix(m.Name, "host_") && m.Name != "setup_s"
}

// endToEnd lists what a user of the system (or of the simulator) sees.
// Bound is the share of the parent's median by which the metric may worsen
// before a change counts as a regression. Simulated values (unit sim_ms:
// milliseconds on the modelled machine) repeat exactly for a seed and move
// only in their low digits between seeds; host values carry this machine's
// noise.
var endToEnd = []metricSpec{
	{"sim_ms_per_op", "sim_ms", "lower", 0.005},
	{"sim_op_p50_ms", "sim_ms", "lower", 0.005},
	{"sim_op_tail_ms", "sim_ms", "lower", 0.005},
	{"sim_op_max_ms", "sim_ms", "lower", 0.005},
	{"host_us_per_op", "us", "lower", 0.25},
	{"host_allocs_per_op", "count", "lower", 0.02},
	{"host_alloc_kb_per_op", "KB", "lower", 0.08},
	{"host_live_heap_mb", "MB", "lower", 0.10},
	{"storage_amp", "ratio", "lower", 0.005},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced run. Source (a) is
// the program's own spans and counters over the measured phase of a traced
// rep; source (b) is a probe that calls the layer's exported functions
// directly. README.md states which end-to-end metric each should move.
var perLayer = []metricSpec{
	// core: the Bridge client library and server.
	{Name: "core.client_self_ms_per_op", Unit: "sim_ms", Better: "lower"},
	{Name: "core.server_self_ms_per_op", Unit: "sim_ms", Better: "lower"},
	{Name: "core.server_queue_ms_per_op", Unit: "sim_ms", Better: "lower"},
	{Name: "core.ra_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.wb_blocks_per_flush", Unit: "count", Better: "higher"},
	{Name: "core.retries_per_op", Unit: "count", Better: "lower"},
	{Name: "core.redirects_per_op", Unit: "count", Better: "lower"},
	{Name: "core.open_ns", Unit: "ns", Better: "lower"},
	// lfs: the per-node storage server.
	{Name: "lfs.self_ms_per_op", Unit: "sim_ms", Better: "lower"},
	{Name: "lfs.queue_ms_per_op", Unit: "sim_ms", Better: "lower"},
	{Name: "lfs.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "lfs.readvec_ns_per_blk", Unit: "ns", Better: "lower"},
	{Name: "lfs.writevec_ns_per_blk", Unit: "ns", Better: "lower"},
	// disk: the simulated device.
	{Name: "disk.busy_ms_per_op", Unit: "sim_ms", Better: "lower"},
	{Name: "disk.util_frac", Unit: "ratio", Better: "higher"},
	{Name: "disk.ops_per_op", Unit: "count", Better: "lower"},
	{Name: "disk.syncs_per_op", Unit: "count", Better: "lower"},
	{Name: "disk.rw_ns", Unit: "ns", Better: "lower"},
	{Name: "disk.filestore_sync_us", Unit: "us", Better: "lower"},
	// efs: the local file system on each node.
	{Name: "efs.cache_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "efs.journal_blocks_per_op", Unit: "count", Better: "lower"},
	{Name: "efs.append_ns", Unit: "ns", Better: "lower"},
	{Name: "efs.read_ns", Unit: "ns", Better: "lower"},
	{Name: "efs.append_allocs", Unit: "count", Better: "lower"},
	// msg: the cost-modelled message network.
	{Name: "msg.sent_per_op", Unit: "count", Better: "lower"},
	{Name: "msg.remote_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "msg.rpc_ns", Unit: "ns", Better: "lower"},
	{Name: "msg.rpc_allocs", Unit: "count", Better: "lower"},
	// sim: the virtual-clock runtime.
	{Name: "sim.queue_rtt_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.queue_rtt_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.sleep_ns", Unit: "ns", Better: "lower"},
	// tcpnet: the real-socket transport (no workload crosses it).
	{Name: "tcpnet.rpc_us", Unit: "us", Better: "lower"},
	{Name: "tcpnet.rpc_allocs", Unit: "count", Better: "lower"},
	// raft: the replicated directory log.
	{Name: "raft.commit_wait_ms_per_op", Unit: "sim_ms", Better: "lower"},
	{Name: "raft.entries_per_op", Unit: "count", Better: "lower"},
	{Name: "raft.elections", Unit: "count", Better: "lower"},
	{Name: "raft.step_ns", Unit: "ns", Better: "lower"},
	{Name: "raft.step_allocs", Unit: "count", Better: "lower"},
	// replica: mirror, parity and Reed-Solomon files.
	{Name: "replica.parity_writes_per_op", Unit: "count", Better: "lower"},
	{Name: "replica.reconstructions_per_op", Unit: "count", Better: "lower"},
	{Name: "replica.rs_append_us", Unit: "us", Better: "lower"},
	{Name: "replica.rs_reconstruct_us", Unit: "us", Better: "lower"},
	// tools: copy and sort, in simulated time.
	{Name: "tools.copy_ms_per_rec", Unit: "sim_ms", Better: "lower"},
	{Name: "tools.sort_local_ms_per_rec", Unit: "sim_ms", Better: "lower"},
	{Name: "tools.sort_merge_ms_per_rec", Unit: "sim_ms", Better: "lower"},
	// obs: the span recorder itself.
	{Name: "obs.spans_per_op", Unit: "count", Better: "lower"},
	{Name: "obs.dropped_spans", Unit: "count", Better: "lower"},
	{Name: "obs.coverage_frac", Unit: "ratio", Better: "higher"},
	{Name: "obs.host_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.span_ns", Unit: "ns", Better: "lower"},
	// bridge: the facade; host: the machine.
	{Name: "bridge.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "host.calib_ns", Unit: "ns", Better: "lower"},
	{Name: "host.verify_ns_per_blk", Unit: "ns", Better: "lower"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames rejects a metric or workload name outside the benchmark
// contract's character set, or one used twice.
func checkNames() error {
	seen := map[string]bool{}
	var names []string
	for _, m := range endToEnd {
		names = append(names, m.Name)
	}
	for _, m := range perLayer {
		names = append(names, m.Name)
	}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	return nil
}

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics. vals need not be sorted; it is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// summary is the fastest / median / IQR of a host timing over reps. Host
// noise on a shared box is one-sided: a rep is never faster than the code
// allows and often slower, in bursts that can last a whole run. Measured
// across eight runs on a noisy afternoon, the fastest rep spread 3-11 %
// from run to run where the lower quartile spread 4-19 % and the median
// 6-17 %, so the fastest rep is the reported estimate; the median and IQR
// are printed beside it so a reader can see how noisy the run was.
type summary struct{ min, p50, iqr float64 }

func summarize(vals []float64) summary {
	return summary{
		min: quantile(vals, 0),
		p50: quantile(vals, 0.50),
		iqr: quantile(vals, 0.75) - quantile(vals, 0.25),
	}
}

// tail describes which percentile sim_op_tail_ms reports.
type tail struct {
	value   time.Duration
	pct     float64 // 100 = the maximum
	samples int
}

// latencyTail returns the highest percentile that still has at least ten
// samples beyond it, capped at p99; with fewer than 20 samples it is the
// maximum. sorted must be ascending and non-empty.
func latencyTail(sorted []time.Duration) tail {
	n := len(sorted)
	if n < 20 {
		return tail{value: sorted[n-1], pct: 100, samples: n}
	}
	idx := n - 11 // ten samples lie strictly beyond sorted[idx]
	if cap99 := int(math.Ceil(0.99*float64(n))) - 1; idx > cap99 {
		idx = cap99
	}
	return tail{value: sorted[idx], pct: 100 * float64(idx+1) / float64(n), samples: n}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

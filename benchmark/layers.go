package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"bridge"
)

// interval is a half-open span of simulated time.
type interval struct{ lo, hi time.Duration }

// covered returns the total length of the union of ivs clipped to within.
// It sorts ivs in place.
func covered(ivs []interval, within interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	at := within.lo
	for _, iv := range ivs {
		lo, hi := max(iv.lo, at), min(iv.hi, within.hi)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// layerOf maps a span kind ("server.seqread") to the repo package that
// recorded it. Client and server spans both come from internal/core.
func layerOf(kind string) string {
	layer, _, _ := strings.Cut(kind, ".")
	return layer
}

// spanLayers are the prefixes the program's span kinds have today. A span
// from any other layer fails the traced run: its time would otherwise go
// missing from the layer it used to be booked under.
var spanLayers = map[string]bool{"client": true, "server": true, "lfs": true, "disk": true}

// layerTimes is what the traced rep's spans say about one layer over the
// measured phase.
type layerTimes struct {
	self  time.Duration // duration minus the part child spans cover
	queue time.Duration // time requests waited in the layer's port queue
	spans int
}

// spanAccount reduces the program's spans to per-layer self and queue time.
// Only spans that lie wholly inside the measured phase count, so set-up and
// verification traffic is excluded. coverage is the share of the phase
// during which at least one span was open: the part of the end-to-end time
// the trace can explain at all.
func spanAccount(spans []bridge.OpSpan, phase interval) (layers map[string]*layerTimes, coverage float64, total int) {
	layers = map[string]*layerTimes{}
	children := map[uint64][]interval{}
	var in []bridge.OpSpan
	for _, sp := range spans {
		if sp.Start < phase.lo || sp.End > phase.hi {
			continue
		}
		in = append(in, sp)
		if sp.Parent != 0 {
			children[uint64(sp.Parent)] = append(children[uint64(sp.Parent)], interval{sp.Start, sp.End})
		}
	}
	all := make([]interval, 0, len(in))
	for _, sp := range in {
		lt := layers[layerOf(sp.Kind)]
		if lt == nil {
			lt = &layerTimes{}
			layers[layerOf(sp.Kind)] = lt
		}
		own := interval{sp.Start, sp.End}
		lt.self += (sp.End - sp.Start) - covered(children[uint64(sp.ID)], own)
		lt.queue += sp.QueueWait
		lt.spans++
		all = append(all, own)
	}
	if span := phase.hi - phase.lo; span > 0 {
		coverage = float64(covered(all, phase)) / float64(span)
	}
	return layers, coverage, len(in)
}

// ratio is a/b, or 0 when nothing was counted: a layer the workload
// bypasses reports exactly 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedLayers computes the source-(a) per-layer metrics from one traced
// rep: spans for time, the program's counters for counts. A counter that
// this workload never touched reads 0, which is how a bypass shows; a
// counter the program does not have at all (renamed, removed) would read 0
// just the same, so every name must be in the rep's snapshot or in catalog.
func tracedLayers(w *workload, r *rep, catalog string) (map[string]float64, error) {
	if n := r.insp.DroppedSpans(); n > 0 {
		return nil, fmt.Errorf("%s: the span recorder dropped %d spans; raise SpanCap", w.name, n)
	}
	ops := float64(r.ops)
	layers, coverage, total := spanAccount(r.insp.Spans(), interval{r.simStart, r.simEnd})
	for name := range layers {
		if !spanLayers[name] {
			return nil, fmt.Errorf("%s: spans of an unknown layer %q; teach layers.go which package records them", w.name, name)
		}
	}
	get := func(name string) *layerTimes {
		if lt := layers[name]; lt != nil {
			return lt
		}
		return &layerTimes{}
	}
	var unknown []string
	d := func(name string) float64 {
		if _, counted := r.after[name]; !counted && !strings.Contains(catalog, "`"+name+"`") {
			unknown = append(unknown, name)
		}
		return float64(r.after[name] - r.before[name])
	}
	perOpMs := func(t time.Duration) float64 { return ms(t) / ops }

	out := map[string]float64{
		"core.client_self_ms_per_op":  perOpMs(get("client").self),
		"core.server_self_ms_per_op":  perOpMs(get("server").self),
		"core.server_queue_ms_per_op": perOpMs(get("server").queue),
		"core.ra_hit_frac":            ratio(d("bridge.ra_hits"), d("bridge.ra_hits")+d("bridge.ra_misses")),
		"core.wb_blocks_per_flush":    ratio(d("bridge.wb_flushed_blocks"), d("bridge.wb_flushes")),
		"core.retries_per_op":         d("bridge.client_retries") / ops,
		"core.redirects_per_op":       d("bridge.raft_notleader_redirects") / ops,

		"lfs.self_ms_per_op":  perOpMs(get("lfs").self),
		"lfs.queue_ms_per_op": perOpMs(get("lfs").queue),
		"lfs.calls_per_op":    float64(get("lfs").spans) / ops,

		"disk.busy_ms_per_op": ms(time.Duration(d("disk.busy"))) / ops,
		"disk.util_frac":      ratio(d("disk.busy"), float64(r.simSpan())*nodes),
		"disk.ops_per_op":     d("disk.ops") / ops,
		"disk.syncs_per_op":   d("disk.syncs") / ops,

		"efs.cache_hit_frac":        ratio(d("efs.cache_hits"), d("efs.cache_hits")+d("efs.cache_misses")),
		"efs.journal_blocks_per_op": d("bridge.journal_blocks") / ops,

		"msg.sent_per_op":      d("msg.sent") / ops,
		"msg.remote_kb_per_op": d("msg.remote_bytes") / 1024 / ops,

		"raft.commit_wait_ms_per_op": ms(time.Duration(d("bridge.raft_commit_wait"))) / ops,
		"raft.entries_per_op":        d("bridge.raft_entries_committed") / ops,
		"raft.elections":             d("bridge.raft_elections"),

		"replica.parity_writes_per_op":   d("bridge.rs_parity_writes") / ops,
		"replica.reconstructions_per_op": d("bridge.rs_reconstructions") / ops,

		"tools.copy_ms_per_rec":       ratio(ms(r.tools.copy), float64(r.tools.records)),
		"tools.sort_local_ms_per_rec": ratio(ms(r.tools.sortLocal), float64(r.tools.records)),
		"tools.sort_merge_ms_per_rec": ratio(ms(r.tools.sortMerge), float64(r.tools.records)),

		"obs.spans_per_op":  float64(total) / ops,
		"obs.dropped_spans": 0, // checked above: a drop fails the run
		"obs.coverage_frac": coverage,
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("%s: the program has no counter named %s; the per-layer metrics built on them would read 0",
			w.name, strings.Join(unknown, ", "))
	}
	return out, nil
}

package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// BENCH.json is the quick-scale, p = 8 report of the headline paths in
// simulated time. The virtual clock makes every row exactly reproducible,
// so TestBenchGolden compares it byte for byte: a row moves only when the
// code's performance does, and a change that moves one regenerates the file
// (and README's table of it) with
//
//	UPDATE_BENCH=1 go test ./internal/experiments -run TestBenchGolden
const (
	benchPath   = "../../BENCH.json"
	readmePath  = "../../README.md"
	benchUpdate = "UPDATE_BENCH=1 go test ./internal/experiments -run TestBenchGolden"
	blockBegin  = "<!-- BEGIN generated by TestBenchGolden -->\n"
	blockEnd    = "<!-- END generated by TestBenchGolden -->\n"
)

// benchRow is one BENCH.json key. Values are simulated milliseconds
// (*_sim_ms), simulated rates (*_per_sec), or ratios of them.
type benchRow struct {
	key string
	val any
}

var inf = math.Inf(1)

// benchGate bounds one row, lo ≤ value ≤ hi, whatever its golden value;
// when of names another row, both bounds are multiples of that row.
type benchGate struct {
	key, of string
	lo, hi  float64
}

var benchGates = []benchGate{
	// The batched naive read stays at least 3× cheaper a block than the
	// per-block naive read.
	{key: "batched_read_speedup", lo: 3, hi: inf},
	// Checksums and the idle-time scrubber cost at most 5 % on it.
	{key: "scrub_overhead_frac", lo: -inf, hi: 0.05},
	// Spans charge no simulated time, so this is 0; the budget catches a
	// recorder that starts to Sleep.
	{key: "obs_overhead_frac", lo: -inf, hi: 0.02},
	// Group commit keeps the intent journal at or below zero on the
	// batched write.
	{key: "journal_overhead_frac", lo: -inf, hi: 0.05},
	// Write-behind group commit against synchronous per-block appends.
	{key: "wb_write_speedup", lo: 5, hi: inf},
	// The tool-mode delete against the server's serial chain walk.
	{key: "pdelete_speedup", lo: 4, hi: inf},
	// RS(6,2): (6+2)/6 plus partial-stripe rounding, far below a mirror's 2×.
	{key: "rs_storage_overhead", lo: 1.30, hi: 1.40},
	// A redundant append is one scatter, every copy and parity cell on
	// its own node: redundancy costs disks, not round trips.
	{key: "mirror_append_blk_sim_ms", of: "write_blk_sim_ms", lo: -inf, hi: 1.10},
	{key: "rs_append_blk_sim_ms", of: "write_blk_sim_ms", lo: -inf, hi: 1.10},
	// Leader kill-9 to the first served Open: the dead-leader timeout
	// (1 s), an election (≤ 0.3 s) and the takeover replay, with slack.
	{key: "failover_sim_ms", lo: -inf, hi: 3000},
	// Four shard groups at least double one group's directory-op rate.
	{key: "shard_scaling", lo: 2, hi: inf},
}

func (g benchGate) String() string {
	var s string
	switch {
	case g.lo == -inf:
		s = fmt.Sprintf("≤ %g", g.hi)
	case g.hi == inf:
		s = fmt.Sprintf("≥ %g", g.lo)
	default:
		s = fmt.Sprintf("%g – %g", g.lo, g.hi)
	}
	if g.of != "" {
		s += " × `" + g.of + "`"
	}
	return s
}

func simMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// benchRows runs the quick-scale experiments at p = 8 and returns the
// report in BENCH.json's key order.
func benchRows(t *testing.T) []benchRow {
	const p = 8
	cfg := QuickScale()
	cfg.Ps = []int{p}
	t2, err := Table2(cfg)
	must(t, err)
	copyRows, err := Table3Copy(cfg)
	must(t, err)
	sortRows, err := Table4Sort(cfg)
	must(t, err)
	scrub, err := ScrubOverhead(cfg)
	must(t, err)
	obsPts, err := ObsOverhead(cfg)
	must(t, err)
	jnlPts, err := JournalOverhead(cfg)
	must(t, err)
	wcPts, err := WriteCampaign(cfg)
	must(t, err)
	foPts, err := Failover(cfg)
	must(t, err)
	ms, err := MetadataScaling(cfg, p, 8, 24, []int{1, 4})
	must(t, err)
	pt, cp, sr := t2.Points[0], copyRows[0], sortRows[0]
	so, oo, jo, wc, fo := scrub[0], obsPts[0], jnlPts[0], wcPts[0], foPts[0]
	return []benchRow{
		{"scale", "quick"},
		{"p", p},
		{"naive_read_blk_sim_ms", simMs(pt.ReadPerBlock)},
		{"batched_read_blk_sim_ms", simMs(pt.ReadBatchPerBlock)},
		{"batched_read_speedup", simMs(pt.ReadPerBlock) / simMs(pt.ReadBatchPerBlock)},
		{"copy_tool_sim_ms", simMs(cp.Time)},
		{"copy_rec_per_sec", cp.RecPerSec},
		{"write_blk_sim_ms", simMs(pt.WritePerBlock)},
		{"create_sim_ms", simMs(pt.CreateTime)},
		{"delete_total_sim_ms", simMs(pt.DeleteTotal)},
		// The sort tool's local phase, three runs a node joined two at a
		// time, and its three token-ring merge passes.
		{"sort_local_sim_ms", simMs(sr.Local)},
		{"sort_merge_sim_ms", simMs(sr.Merge)},
		// The batched read with every node's scrubber running, and with the
		// span recorder on the network and every disk.
		{"batched_read_scrub_blk_sim_ms", simMs(so.With)},
		{"scrub_overhead_frac", so.Overhead()},
		{"batched_read_obs_blk_sim_ms", simMs(oo.With)},
		{"obs_overhead_frac", oo.Overhead()},
		// The batched append on plain and on journaled volumes.
		{"batched_write_blk_sim_ms", simMs(jo.Plain)},
		{"batched_write_jnl_blk_sim_ms", simMs(jo.With)},
		{"journal_overhead_frac", jo.Overhead()},
		{"wb_write_blk_sim_ms", simMs(wc.WBWritePerBlock)},
		{"wb_write_speedup", wc.WriteSpeedup()},
		{"pdelete_total_sim_ms", simMs(wc.ParallelDeleteTotal)},
		{"pdelete_speedup", wc.DeleteSpeedup()},
		{"mirror_append_blk_sim_ms", simMs(wc.MirrorAppendPerBlock)},
		{"rs_append_blk_sim_ms", simMs(wc.RSAppendPerBlock)},
		{"rs_storage_overhead", wc.RSOverhead},
		// A leader-served Open in a Replicas: 3 group, and the outage a
		// leader kill-9 costs a client.
		{"replicated_open_sim_ms", simMs(fo.SteadyOpen)},
		{"failover_sim_ms", simMs(fo.FailoverTime)},
		// Create/stat/stat/delete churn from 8 clients at 1 and 4 shard
		// groups of 3 replicas, on zero-latency disks.
		{"meta_ops_1shard_per_sec", ms[0].OpsPerSec},
		{"meta_ops_4shard_per_sec", ms[1].OpsPerSec},
		{"shard_scaling", ms[1].OpsPerSec / ms[0].OpsPerSec},
	}
}

// benchJSON renders rows as json.MarshalIndent renders a struct.
func benchJSON(t *testing.T, rows []benchRow) []byte {
	var b bytes.Buffer
	for i, r := range rows {
		v, err := json.Marshal(r.val)
		must(t, err)
		sep := ",\n"
		if i == 0 {
			sep = "{\n"
		}
		fmt.Fprintf(&b, "%s  %q: %s", sep, r.key, v)
	}
	b.WriteString("\n}\n")
	return b.Bytes()
}

// benchBlock renders the rows as README's markdown table, each beside its
// gate.
func benchBlock(rows []benchRow) string {
	gates := make(map[string]string, len(benchGates))
	for _, g := range benchGates {
		gates[g.key] = g.String()
	}
	var b strings.Builder
	b.WriteString("| `BENCH.json` row | value | gate |\n|---|---|---|\n")
	for _, r := range rows {
		v := fmt.Sprint(r.val)
		if f, ok := r.val.(float64); ok {
			v = fmt.Sprintf("%.4g", f)
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", r.key, v, gates[r.key])
	}
	return b.String()
}

// splice returns doc with the text between the markers begin and end
// replaced by body, and the text it replaced; ok is false when doc lacks
// the markers.
func splice(doc, begin, end, body string) (out, old string, ok bool) {
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		return doc, "", false
	}
	return doc[:i+len(begin)] + body + doc[j:], doc[i+len(begin) : j], true
}

// movedRows lists each key whose value differs between the committed
// report and the regenerated one, as "key: old → new".
func movedRows(t *testing.T, old []byte, rows []benchRow) string {
	var o map[string]json.RawMessage
	must(t, json.Unmarshal(old, &o))
	var b strings.Builder
	for _, r := range rows {
		v, _ := json.Marshal(r.val)
		if was, ok := o[r.key]; !ok {
			fmt.Fprintf(&b, "\t%s: (new) → %s\n", r.key, v)
		} else if !bytes.Equal(was, v) {
			fmt.Fprintf(&b, "\t%s: %s → %s\n", r.key, was, v)
		}
		delete(o, r.key)
	}
	gone := make([]string, 0, len(o))
	for k := range o {
		gone = append(gone, k)
	}
	sort.Strings(gone)
	for _, k := range gone {
		fmt.Fprintf(&b, "\t%s: %s → (gone)\n", k, o[k])
	}
	return b.String()
}

// TestBenchGolden regenerates BENCH.json, holds every row to its gate, and
// requires the file and README's table of it to equal what it regenerated.
func TestBenchGolden(t *testing.T) {
	rows := benchRows(t)
	vals := make(map[string]float64, len(rows))
	for _, r := range rows {
		if f, ok := r.val.(float64); ok {
			vals[r.key] = f
		}
	}
	for _, g := range benchGates {
		v, unit := vals[g.key], 1.0
		if g.of != "" {
			unit = vals[g.of]
		}
		if !(v >= g.lo*unit && v <= g.hi*unit) {
			t.Errorf("%s = %.4g breaks its gate %s", g.key, v, g)
		}
	}

	got := benchJSON(t, rows)
	readme, err := os.ReadFile(readmePath)
	must(t, err)
	newReadme, _, ok := splice(string(readme), blockBegin, blockEnd, benchBlock(rows))
	if !ok {
		t.Fatalf("%s has no %q … %q block", readmePath, blockBegin, blockEnd)
	}

	if os.Getenv("UPDATE_BENCH") != "" {
		must(t, os.WriteFile(benchPath, got, 0o644))
		must(t, os.WriteFile(readmePath, []byte(newReadme), 0o644))
		return
	}
	want, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatalf("read %s: %v (regenerate with %s)", benchPath, err, benchUpdate)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("BENCH.json rows moved (old → new):\n%sa change that means to move them regenerates with %s",
			movedRows(t, want, rows), benchUpdate)
	}
	if newReadme != string(readme) {
		t.Errorf("README.md's BENCH.json table is stale; regenerate with %s", benchUpdate)
	}
}

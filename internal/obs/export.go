package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"
)

// ErrNoRecorder is returned by the exporters when observability is off.
var ErrNoRecorder = errors.New("obs: no recorder (observability disabled)")

// Span lanes in the Chrome trace: one tid per layer so about://tracing
// shows client, server, LFS, and disk activity as separate rows per node.
const (
	laneClient = iota
	laneServer
	laneLFS
	laneDisk
	laneEvents
	laneCounters
)

var laneNames = map[int]string{
	laneClient:   "client ops",
	laneServer:   "server ops",
	laneLFS:      "lfs ops",
	laneDisk:     "disk",
	laneEvents:   "events",
	laneCounters: "counters",
}

// laneOf maps a span kind ("server.read", "disk.write", ...) to its lane.
func laneOf(kind string) int {
	for i := 0; i < len(kind); i++ {
		if kind[i] == '.' {
			switch kind[:i] {
			case "client":
				return laneClient
			case "server":
				return laneServer
			case "lfs":
				return laneLFS
			case "disk":
				return laneDisk
			}
			break
		}
	}
	return laneEvents
}

// chromeEvent is one trace_event entry. Fields marshal in declaration
// order, which (plus sorted map keys in encoding/json) is what makes the
// export byte-deterministic.
type chromeEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"`
	Dur  *float64 `json:"dur,omitempty"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	S    string   `json:"s,omitempty"`
	Args any      `json:"args,omitempty"`
}

type spanArgs struct {
	Trace       TraceID  `json:"trace"`
	Span        SpanID   `json:"span"`
	Parent      SpanID   `json:"parent,omitempty"`
	QueueWaitUs float64  `json:"queue_wait_us,omitempty"`
	Ann         []string `json:"ann,omitempty"`
	Err         string   `json:"err,omitempty"`
}

type nameArgs struct {
	Name string `json:"name"`
}

type eventArgs struct {
	Trace  TraceID `json:"trace,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// us converts a virtual duration to trace_event microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteChromeTrace writes the recorder's spans, events, and gauge samples
// as Chrome trace_event JSON (load in about://tracing or Perfetto). The
// output is byte-identical across same-seed runs: virtual timestamps only,
// struct-ordered keys, spans sorted by (start, span ID). When anything was
// dropped at the SpanCap, the trace's metadata counts it.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return ErrNoRecorder
	}
	spans := r.Spans()
	events := r.Events()
	samples := r.Samples()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})

	// Every (pid, lane) pair that appears gets process/thread metadata.
	pids := map[int]bool{0: true}
	lanes := map[[2]int]bool{}
	for _, s := range spans {
		pids[s.Node] = true
		lanes[[2]int{s.Node, laneOf(s.Kind)}] = true
	}
	for _, s := range samples {
		pids[s.Node] = true
		lanes[[2]int{s.Node, laneCounters}] = true
	}
	if len(events) > 0 {
		lanes[[2]int{0, laneEvents}] = true
	}
	pidList := make([]int, 0, len(pids))
	for pid := range pids {
		pidList = append(pidList, pid)
	}
	sort.Ints(pidList)
	laneList := make([][2]int, 0, len(lanes))
	for l := range lanes {
		laneList = append(laneList, l)
	}
	sort.Slice(laneList, func(i, j int) bool {
		if laneList[i][0] != laneList[j][0] {
			return laneList[i][0] < laneList[j][0]
		}
		return laneList[i][1] < laneList[j][1]
	})

	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(e chromeEvent) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		sep := ",\n"
		if first {
			sep = ""
			first = false
		}
		if _, err := io.WriteString(w, sep); err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	}

	for _, pid := range pidList {
		name := fmt.Sprintf("node %d (storage)", pid)
		if pid == 0 {
			name = "node 0 (bridge server)"
		}
		if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: nameArgs{Name: name}}); err != nil {
			return err
		}
	}
	for _, l := range laneList {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: l[0], Tid: l[1], Args: nameArgs{Name: laneNames[l[1]]}}); err != nil {
			return err
		}
	}
	for _, s := range spans {
		dur := us(s.End - s.Start)
		if err := emit(chromeEvent{
			Name: s.Kind, Ph: "X", Ts: us(s.Start), Dur: &dur,
			Pid: s.Node, Tid: laneOf(s.Kind),
			Args: spanArgs{
				Trace: s.Trace, Span: s.ID, Parent: s.Parent,
				QueueWaitUs: us(s.QueueWait), Ann: s.Annotations, Err: s.Err,
			},
		}); err != nil {
			return err
		}
	}
	for _, e := range events {
		if err := emit(chromeEvent{
			Name: e.Kind, Ph: "i", Ts: us(e.At), Pid: 0, Tid: laneEvents, S: "g",
			Args: eventArgs{Trace: e.Trace, Detail: e.Detail},
		}); err != nil {
			return err
		}
	}
	for _, s := range samples {
		if err := emit(chromeEvent{
			Name: s.Name, Ph: "C", Ts: us(s.At), Pid: s.Node, Tid: laneCounters,
			Args: map[string]int64{s.Name: s.Value},
		}); err != nil {
			return err
		}
	}
	tail := "\n]}\n"
	if ds, de := r.DroppedSpans(), r.DroppedEvents(); ds+de > 0 {
		tail = fmt.Sprintf("\n],\"metadata\":{\"dropped_events\":%d,\"dropped_spans\":%d}}\n", de, ds)
	}
	_, err := io.WriteString(w, tail)
	return err
}

// topNode accumulates per-node aggregates for WriteTop.
type topNode struct {
	spans    int
	errs     int
	diskBusy time.Duration
	qSum     int64
	qCnt     int64
	qMax     int64
}

// WriteTop writes a plain-text per-node report (a deterministic
// "bridgetop"): span counts, disk busy time and utilization, queue-depth
// statistics, what was dropped at the SpanCap, and the per-op-kind latency
// histograms.
func (r *Recorder) WriteTop(w io.Writer) error {
	if r == nil {
		return ErrNoRecorder
	}
	spans := r.Spans()
	samples := r.Samples()

	var elapsed time.Duration
	nodes := map[int]*topNode{}
	nodeOf := func(n int) *topNode {
		t := nodes[n]
		if t == nil {
			t = &topNode{}
			nodes[n] = t
		}
		return t
	}
	for _, s := range spans {
		t := nodeOf(s.Node)
		t.spans++
		if s.Err != "" {
			t.errs++
		}
		if laneOf(s.Kind) == laneDisk {
			t.diskBusy += s.End - s.Start
		}
		if s.End > elapsed {
			elapsed = s.End
		}
	}
	for _, s := range samples {
		if s.At > elapsed {
			elapsed = s.At
		}
		if s.Name != "queue_depth" {
			continue
		}
		t := nodeOf(s.Node)
		t.qSum += s.Value
		t.qCnt++
		if s.Value > t.qMax {
			t.qMax = s.Value
		}
	}
	nodeList := make([]int, 0, len(nodes))
	for n := range nodes {
		nodeList = append(nodeList, n)
	}
	sort.Ints(nodeList)

	if _, err := fmt.Fprintf(w, "bridge obs report (virtual time, elapsed %v)\n\n", elapsed); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-6s %8s %6s %12s %7s %14s\n", "node", "spans", "errs", "disk-busy", "util%", "qdepth avg/max"); err != nil {
		return err
	}
	for _, n := range nodeList {
		t := nodes[n]
		busy, util := "-", "-"
		if t.diskBusy > 0 && elapsed > 0 {
			busy = t.diskBusy.String()
			util = fmt.Sprintf("%.1f", 100*float64(t.diskBusy)/float64(elapsed))
		}
		qd := "-"
		if t.qCnt > 0 {
			qd = fmt.Sprintf("%.1f/%d", float64(t.qSum)/float64(t.qCnt), t.qMax)
		}
		if _, err := fmt.Fprintf(w, "%-6d %8d %6d %12s %7s %14s\n", n, t.spans, t.errs, busy, util, qd); err != nil {
			return err
		}
	}

	if ds, de := r.DroppedSpans(), r.DroppedEvents(); ds+de > 0 {
		if _, err := fmt.Fprintf(w, "\ndropped at the cap: %d spans, %d events\n", ds, de); err != nil {
			return err
		}
	}

	hists := r.Histograms()
	if len(hists) > 0 {
		if _, err := fmt.Fprintf(w, "\n%-22s %8s %10s %10s %10s %10s %10s\n", "op kind", "count", "mean", "p50", "p95", "p99", "max"); err != nil {
			return err
		}
		for _, h := range hists {
			if _, err := fmt.Fprintf(w, "%-22s %8d %10v %10v %10v %10v %10v\n",
				h.Kind, h.Count, h.Mean(), h.P50, h.P95, h.P99, h.Max); err != nil {
				return err
			}
		}
	}
	return nil
}

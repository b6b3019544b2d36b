package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanLifecycle(t *testing.T) {
	r := NewRecorder(Config{})
	tr := r.NewTrace()
	if tr == 0 {
		t.Fatal("NewTrace returned 0")
	}
	sp := r.Start(10*time.Millisecond, tr, 0, "client.read", 0)
	if r.OpenSpans() != 1 {
		t.Fatalf("OpenSpans = %d, want 1", r.OpenSpans())
	}
	child := r.Start(12*time.Millisecond, tr, sp.ID(), "server.read", 0)
	child.SetQueueWait(1 * time.Millisecond)
	child.Annotate("retry 1")
	child.End(15*time.Millisecond, nil)
	sp.End(20*time.Millisecond, errors.New("boom"))
	if r.OpenSpans() != 0 {
		t.Fatalf("OpenSpans = %d, want 0", r.OpenSpans())
	}

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Kind != "client.read" || spans[0].Err != "boom" {
		t.Errorf("root span = %+v", spans[0])
	}
	if spans[1].Parent != sp.ID() || spans[1].QueueWait != time.Millisecond {
		t.Errorf("child span = %+v", spans[1])
	}
	if len(spans[1].Annotations) != 1 || spans[1].Annotations[0] != "retry 1" {
		t.Errorf("annotations = %v", spans[1].Annotations)
	}

	// Ending again is counted, not recorded.
	sp.End(25*time.Millisecond, nil)
	if r.DoubleEnds() != 1 {
		t.Errorf("DoubleEnds = %d, want 1", r.DoubleEnds())
	}
}

func TestSpanCapDropsPayloadNotLifecycle(t *testing.T) {
	r := NewRecorder(Config{SpanCap: 2})
	var refs []SpanRef
	for i := 0; i < 5; i++ {
		refs = append(refs, r.Start(time.Duration(i), 1, 0, "client.read", 0))
	}
	if r.OpenSpans() != 5 {
		t.Fatalf("OpenSpans = %d, want 5", r.OpenSpans())
	}
	for _, ref := range refs {
		ref.End(10, nil)
	}
	if r.OpenSpans() != 0 {
		t.Fatalf("OpenSpans = %d, want 0", r.OpenSpans())
	}
	if r.DroppedSpans() != 3 {
		t.Errorf("DroppedSpans = %d, want 3", r.DroppedSpans())
	}
	if got := len(r.Spans()); got != 2 {
		t.Errorf("retained %d spans, want 2", got)
	}
}

// Events and samples are bounded by SpanCap like spans: the first ones are
// kept in emission order, the rest counted, and both exporters report the
// count.
func TestEventCapAndDrops(t *testing.T) {
	r := NewRecorder(Config{SpanCap: 3})
	for i := 0; i < 10; i++ {
		r.Event(time.Duration(i), 1, "msg.send", fmt.Sprintf("send %d", i))
	}
	for i := 0; i < 5; i++ {
		r.Sample(time.Duration(i), 1, "queue_depth", int64(i))
	}
	ev := r.Events()
	if len(ev) != 3 || ev[0].Detail != "send 0" || ev[2].Detail != "send 2" || ev[1].Kind != "msg.send" {
		t.Errorf("events = %+v, want the first three sends", ev)
	}
	if got := len(r.Samples()); got != 3 {
		t.Errorf("kept %d samples, want 3", got)
	}
	if got := r.DroppedEvents(); got != 9 {
		t.Errorf("DroppedEvents = %d, want 9", got)
	}
	var trc, top bytes.Buffer
	if err := r.WriteChromeTrace(&trc); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metadata struct {
			DroppedEvents int `json:"dropped_events"`
			DroppedSpans  int `json:"dropped_spans"`
		} `json:"metadata"`
	}
	if err := json.Unmarshal(trc.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Metadata.DroppedEvents != 9 || doc.Metadata.DroppedSpans != 0 {
		t.Errorf("trace metadata = %+v, want 9 events and 0 spans dropped", doc.Metadata)
	}
	if err := r.WriteTop(&top); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(top.String(), "dropped at the cap: 0 spans, 9 events") {
		t.Errorf("top report missing the drop count:\n%s", top.String())
	}
}

// Events from concurrent emitters are each kept or counted, never lost.
func TestConcurrentEvents(t *testing.T) {
	r := NewRecorder(Config{SpanCap: 5000})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Event(time.Duration(j), 0, "k", "d")
			}
		}()
	}
	wg.Wait()
	if got := len(r.Events()) + r.DroppedEvents(); got != 8000 {
		t.Errorf("events+dropped = %d, want 8000", got)
	}
}

// Events are kept in emission order with their kind and detail.
func TestEventsInOrder(t *testing.T) {
	r := NewRecorder(Config{})
	r.Event(time.Second, 1, "msg.send", "a -> b")
	r.Event(2*time.Second, 2, "disk.read", fmt.Sprintf("block %d", 7))
	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d, want 2", len(ev))
	}
	if ev[0].Kind != "msg.send" || ev[0].Detail != "a -> b" || ev[1].Kind != "disk.read" || ev[1].Detail != "block 7" {
		t.Errorf("events = %+v", ev)
	}
}

// A nil recorder takes events and samples and hands none back.
func TestNilRecorderEventsAreInert(t *testing.T) {
	var r *Recorder
	r.Event(0, 1, "k", "d")
	r.Sample(0, 1, "g", 2)
	if r.Events() != nil || r.Samples() != nil || r.DroppedEvents() != 0 {
		t.Error("nil recorder returned events")
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.NewTrace() != 0 {
		t.Error("nil NewTrace != 0")
	}
	sp := r.Start(0, 1, 0, "x", 0)
	sp.Annotate("a")
	sp.SetQueueWait(1)
	sp.End(1, nil)
	if r.OpenSpans() != 0 || r.DoubleEnds() != 0 || len(r.Spans()) != 0 {
		t.Error("nil recorder recorded something")
	}
	if err := r.WriteChromeTrace(&bytes.Buffer{}); !errors.Is(err, ErrNoRecorder) {
		t.Errorf("WriteChromeTrace err = %v", err)
	}
	if err := r.WriteTop(&bytes.Buffer{}); !errors.Is(err, ErrNoRecorder) {
		t.Errorf("WriteTop err = %v", err)
	}
}

func TestHistBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 1},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 9}, // 1000µs ∈ [512µs, 1024µs)
		{time.Hour, numBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	for i := 1; i < numBuckets; i++ {
		if bucketOf(bucketLo(i)) != i {
			t.Errorf("bucketLo(%d) lands in bucket %d", i, bucketOf(bucketLo(i)))
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	r := NewRecorder(Config{})
	for i := 0; i < 99; i++ {
		sp := r.Start(0, 1, 0, "disk.read", 1)
		sp.End(time.Millisecond, nil) // bucket 9: [512µs, 1024µs)
	}
	sp := r.Start(0, 1, 0, "disk.read", 1)
	sp.End(100*time.Millisecond, nil)
	hs := r.Histograms()
	if len(hs) != 1 {
		t.Fatalf("got %d histograms", len(hs))
	}
	h := hs[0]
	if h.Kind != "disk.read" || h.Count != 100 {
		t.Fatalf("snapshot = %+v", h)
	}
	if h.Max != 100*time.Millisecond {
		t.Errorf("Max = %v", h.Max)
	}
	// p50/p95 fall in the 1ms bucket: upper bound 1024µs.
	if h.P50 != 1024*time.Microsecond || h.P95 != 1024*time.Microsecond {
		t.Errorf("P50 = %v, P95 = %v", h.P50, h.P95)
	}
	// p99 is the 99th observation — still 1ms; the 100th is the outlier.
	if h.P99 != 1024*time.Microsecond {
		t.Errorf("P99 = %v", h.P99)
	}
	if h.Mean() <= time.Millisecond {
		t.Errorf("Mean = %v", h.Mean())
	}
}

func TestRegistryTypedHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bridge.retries", "ops", "retries sent")
	c.Add(3)
	if c.Value() != 3 || r.Get("bridge.retries") != 3 {
		t.Errorf("counter = %d / %d", c.Value(), r.Get("bridge.retries"))
	}
	tm := r.Timer("disk.busy", "time the disk spent on accesses")
	tm.Add(2 * time.Second)
	if tm.Value() != 2*time.Second || r.GetTime("disk.busy") != 2*time.Second {
		t.Errorf("timer = %v", tm.Value())
	}
	g := r.Gauge("queue", "msgs", "queue depth")
	g.Set(4)
	g.Set(2)
	st := g.Stats()
	if st.Last != 2 || st.Max != 4 || st.Samples != 2 || st.Sum != 6 || st.Avg() != 3 {
		t.Errorf("gauge stats = %+v", st)
	}

	// Reset zeroes values but keeps registrations: old handles stay live.
	r.Reset()
	if c.Value() != 0 || tm.Value() != 0 || g.Stats().Samples != 0 {
		t.Error("Reset did not zero values")
	}
	c.Add(1)
	if r.Get("bridge.retries") != 1 {
		t.Error("handle dead after Reset")
	}

	// A shim-created metric is upgraded by a typed registration.
	r.Add("late.typed", 5)
	lt := r.Counter("late.typed", "ops", "help text")
	if lt.Value() != 5 {
		t.Errorf("upgraded counter = %d", lt.Value())
	}
	vals := r.Values()
	found := false
	for _, v := range vals {
		if v.Name == "late.typed" {
			found = true
			if v.Help != "help text" || v.Kind != KindCounter {
				t.Errorf("upgraded desc = %+v", v.Desc)
			}
		}
	}
	if !found {
		t.Error("late.typed missing from Values")
	}

	// Conflicting typed re-registration panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic on kind conflict")
			}
		}()
		r.Timer("bridge.retries", "now a timer")
	}()
}

func TestValuesSortedAndNilRegistry(t *testing.T) {
	r := NewRegistry()
	r.Add("z", 1)
	r.Add("a", 1)
	r.Add("m", 1)
	vals := r.Values()
	for i := 1; i < len(vals); i++ {
		if vals[i-1].Name >= vals[i].Name {
			t.Fatalf("Values not sorted: %q >= %q", vals[i-1].Name, vals[i].Name)
		}
	}

	var nr *Registry
	nr.Add("x", 1)
	nr.AddTime("y", time.Second)
	nr.Reset()
	nr.Counter("c", "", "").Add(1)
	nr.Timer("t", "").Add(1)
	nr.Gauge("g", "", "").Set(1)
	if nr.Get("x") != 0 || nr.GetTime("y") != 0 || nr.Values() != nil {
		t.Error("nil registry not inert")
	}
}

// fillRecorder builds identical content on any recorder — the determinism
// fixture for the exporter tests.
func fillRecorder(r *Recorder) {
	tr := r.NewTrace()
	root := r.Start(time.Millisecond, tr, 0, "client.read", 0)
	srv := r.Start(2*time.Millisecond, tr, root.ID(), "server.read", 0)
	srv.SetQueueWait(300 * time.Microsecond)
	lfs := r.Start(3*time.Millisecond, tr, srv.ID(), "lfs.read", 2)
	dsk := r.Start(4*time.Millisecond, tr, lfs.ID(), "disk.read", 2)
	dsk.End(19*time.Millisecond, nil)
	lfs.End(20*time.Millisecond, nil)
	srv.Annotate("retry 1")
	srv.End(21*time.Millisecond, nil)
	root.End(22*time.Millisecond, errors.New(`timeout "quoted"`))
	r.Event(5*time.Millisecond, tr, "fault.drop", "n1 -> n2")
	r.Sample(10*time.Millisecond, 2, "queue_depth", 3)
	r.Sample(10*time.Millisecond, 2, "disk_util_pct", 75)
}

func TestChromeTraceDeterministicAndValid(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		r := NewRecorder(Config{})
		fillRecorder(r)
		if err := r.WriteChromeTrace(&outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatal("two identical recorders produced different Chrome traces")
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(outs[0].Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var phases = map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e.Ph]++
	}
	if phases["X"] != 4 || phases["i"] != 1 || phases["C"] != 2 || phases["M"] == 0 {
		t.Errorf("event phases = %v", phases)
	}
	if strings.Contains(outs[0].String(), "metadata") {
		t.Error("a trace with nothing dropped carries drop metadata")
	}
	if strings.Contains(outs[0].String(), "\\u") == false {
		// The quoted error must be escaped, not break the JSON.
		if !strings.Contains(outs[0].String(), `timeout \"quoted\"`) {
			t.Error("error text not escaped into JSON")
		}
	}
}

func TestTopReportDeterministic(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		r := NewRecorder(Config{})
		fillRecorder(r)
		if err := r.WriteTop(&outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatal("two identical recorders produced different top reports")
	}
	s := outs[0].String()
	for _, want := range []string{"node", "disk-busy", "client.read", "qdepth"} {
		if !strings.Contains(s, want) {
			t.Errorf("top report missing %q:\n%s", want, s)
		}
	}
}

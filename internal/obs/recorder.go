package obs

import (
	"sync"
	"time"
)

// Span is one recorded operation interval. Start and End are virtual times;
// QueueWait is the part of the interval spent waiting in a message queue
// before service began (so service time = End - Start - QueueWait for
// server-side spans).
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	// Kind names the operation with a layer prefix: "client.read",
	// "server.write", "lfs.readvec", "disk.read", ...
	Kind string
	// Node is the cluster node index the span executed on (0 is the
	// Bridge server, 1..P the storage nodes).
	Node        int
	Start, End  time.Duration
	QueueWait   time.Duration
	Annotations []string
	// Err is the failure text, "" on success.
	Err string
}

// Event is an instantaneous annotation (a fault injection, a drop, a cache
// invalidation) tied to a trace but not to a span interval.
type Event struct {
	At     time.Duration
	Trace  TraceID
	Kind   string
	Detail string
}

// Sample is one gauge observation for a node, taken by the virtual-time
// sampler.
type Sample struct {
	At    time.Duration
	Node  int
	Name  string
	Value int64
}

type spanRec struct {
	Span
	done bool
}

// Recorder collects spans, events, and samples. All methods are safe for
// concurrent use and safe on a nil receiver (a nil *Recorder records
// nothing), so instrumented code needs no "is observability on?" branches.
type Recorder struct {
	mu        sync.Mutex
	cap       int
	nextTrace uint64
	nextSpan  uint64
	spans     []spanRec
	// open maps an in-flight span to its index in spans, or -1 when the
	// span was dropped at the cap; lifecycle accounting covers dropped
	// spans too.
	open       map[SpanID]int
	dropped    int
	doubleEnds int
	events     []Event
	samples    []Sample
	// droppedEvents counts events and samples past the cap.
	droppedEvents int
	hists         map[string]*hist
}

// NewRecorder creates a recorder with the given config.
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.WithDefaults()
	return &Recorder{
		cap:   cfg.SpanCap,
		open:  make(map[SpanID]int),
		hists: make(map[string]*hist),
	}
}

// NewTrace allocates a trace ID. Sequential allocation is deterministic
// under the virtual scheduler.
func (r *Recorder) NewTrace() TraceID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextTrace++
	return TraceID(r.nextTrace)
}

// Start opens a span at virtual time at. parent is the causing span (0 for
// a root span). The returned ref must be ended exactly once.
func (r *Recorder) Start(at time.Duration, trace TraceID, parent SpanID, kind string, node int) SpanRef {
	if r == nil {
		return SpanRef{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextSpan++
	id := SpanID(r.nextSpan)
	if len(r.spans) >= r.cap {
		r.dropped++
		r.open[id] = -1
	} else {
		r.open[id] = len(r.spans)
		r.spans = append(r.spans, spanRec{Span: Span{
			Trace: trace, ID: id, Parent: parent, Kind: kind, Node: node, Start: at,
		}})
	}
	return SpanRef{r: r, id: id}
}

// Event records an instantaneous event; past the cap it is only counted.
func (r *Recorder) Event(at time.Duration, trace TraceID, kind, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.events) < r.cap {
		r.events = append(r.events, Event{At: at, Trace: trace, Kind: kind, Detail: detail})
	} else {
		r.droppedEvents++
	}
	r.mu.Unlock()
}

// Sample records one gauge observation; past the cap it is only counted.
func (r *Recorder) Sample(at time.Duration, node int, name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, Sample{At: at, Node: node, Name: name, Value: v})
	} else {
		r.droppedEvents++
	}
	r.mu.Unlock()
}

// Spans returns a copy of every closed span, in span-ID (creation) order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.done {
			out = append(out, s.Span)
		}
	}
	return out
}

// Events returns a copy of all recorded events in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Samples returns a copy of all gauge samples in emission order.
func (r *Recorder) Samples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, len(r.samples))
	copy(out, r.samples)
	return out
}

// OpenSpans returns the number of spans started but not yet ended. After a
// run drains it must be zero — the span-lifecycle tests assert exactly that.
func (r *Recorder) OpenSpans() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.open)
}

// DoubleEnds returns how many times End was called on an already-ended
// span; any nonzero value is an instrumentation bug.
func (r *Recorder) DoubleEnds() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doubleEnds
}

// DroppedSpans returns how many spans were dropped at the SpanCap.
func (r *Recorder) DroppedSpans() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// DroppedEvents returns how many events and samples were dropped at the
// SpanCap.
func (r *Recorder) DroppedEvents() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedEvents
}

// SpanRef is a handle to an in-flight span. The zero value is valid and
// records nothing, so instrumented code can thread refs unconditionally.
type SpanRef struct {
	r  *Recorder
	id SpanID
}

// ID returns the span's ID (0 for the zero ref), for use as a child's
// parent or a message's span stamp.
func (s SpanRef) ID() SpanID { return s.id }

// SetQueueWait records the queue-wait component of the span.
func (s SpanRef) SetQueueWait(d time.Duration) {
	if s.r == nil {
		return
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if idx, ok := s.r.open[s.id]; ok && idx >= 0 {
		s.r.spans[idx].QueueWait = d
	}
}

// Annotate appends a free-form note (a retry, a fault, a cache hit) to the
// span. Annotations on ended or dropped spans are ignored.
func (s SpanRef) Annotate(text string) {
	if s.r == nil {
		return
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if idx, ok := s.r.open[s.id]; ok && idx >= 0 {
		s.r.spans[idx].Annotations = append(s.r.spans[idx].Annotations, text)
	}
}

// End closes the span at virtual time at; err is recorded when non-nil.
// Ending a span twice is counted (see DoubleEnds) and otherwise ignored.
func (s SpanRef) End(at time.Duration, err error) {
	text := ""
	if err != nil {
		text = err.Error()
	}
	s.EndErr(at, text)
}

// EndErr is End with the failure pre-rendered; errText "" means success.
func (s SpanRef) EndErr(at time.Duration, errText string) {
	if s.r == nil {
		return
	}
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, ok := r.open[s.id]
	if !ok {
		r.doubleEnds++
		return
	}
	delete(r.open, s.id)
	if idx < 0 {
		return // dropped at cap: lifecycle tracked, payload not retained
	}
	sp := &r.spans[idx]
	sp.End = at
	sp.Err = errText
	sp.done = true
	h := r.hists[sp.Kind]
	if h == nil {
		h = &hist{}
		r.hists[sp.Kind] = h
	}
	h.observe(at - sp.Start)
}

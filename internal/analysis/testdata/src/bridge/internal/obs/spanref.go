package obs

import "time"

// Span-recording stubs mirroring the real obs API, so span fixtures under
// other testdata packages can exercise the spanend analyzer against an
// import path ending in internal/obs. No diagnostics are expected in this
// file.

type TraceID uint64

type SpanID uint64

// Recorder collects spans.
type Recorder struct {
	lastTrace uint64
	spans     []Span
}

// Span is one recorded operation.
type Span struct {
	Kind  string
	Start time.Duration
	End   time.Duration
	Err   string
}

// Event records an instantaneous event.
func (r *Recorder) Event(at time.Duration, trace TraceID, kind, detail string) {}

// Sample records one gauge observation.
func (r *Recorder) Sample(at time.Duration, node int, name string, v int64) {}

func (r *Recorder) NewTrace() TraceID {
	r.lastTrace++
	return TraceID(r.lastTrace)
}

// Start opens a span; the returned SpanRef must be ended on every path.
func (r *Recorder) Start(at time.Duration, trace TraceID, parent SpanID, kind string, node int) SpanRef {
	r.spans = append(r.spans, Span{Kind: kind, Start: at})
	return SpanRef{r: r, idx: len(r.spans) - 1}
}

// SpanRef is a handle to an open span.
type SpanRef struct {
	r   *Recorder
	idx int
}

func (s SpanRef) ID() SpanID { return SpanID(s.idx) }

func (s SpanRef) SetQueueWait(d time.Duration) {}

func (s SpanRef) Annotate(text string) {}

// End closes the span.
func (s SpanRef) End(at time.Duration, err error) {
	if s.r == nil {
		return
	}
	s.r.spans[s.idx].End = at
	if err != nil {
		s.r.spans[s.idx].Err = err.Error()
	}
}

// EndErr closes the span with a pre-rendered error text.
func (s SpanRef) EndErr(at time.Duration, errText string) {
	if s.r == nil {
		return
	}
	s.r.spans[s.idx].End = at
	s.r.spans[s.idx].Err = errText
}

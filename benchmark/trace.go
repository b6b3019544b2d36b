package main

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"
)

// hostSpan is one span the benchmark records itself, in host time, around a
// call into a layer: name, start, end, and the span that caused it.
type hostSpan struct {
	name       string
	id, parent int
	start, end time.Duration // since the tracer was created
}

// tracer keeps the benchmark's own spans in memory; they are written out
// when the benchmark ends. The program's simulated-time spans are written by
// the program's own exporter (Inspector.WriteChromeTrace), one file per
// workload.
type tracer struct {
	t0    time.Time
	spans []hostSpan
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, hostSpan{name: name, id: id, parent: parent, start: time.Since(t.t0)})
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].end = time.Since(t.t0) }

// batches is how many timed batches every probe runs; the reported figure
// is the lower quartile, because host noise is one-sided.
const batches = 11

// probe times fn(items) `batches` times under one span per batch and
// returns the p25 host nanoseconds and the median allocations per item.
// setup, when not nil, runs before every batch outside the timed and counted
// region: a fresh volume, a new file.
func (t *tracer) probe(name string, parent, items int, setup func(), fn func(n int)) (nsPerItem, allocsPerItem float64) {
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for b := 0; b < batches; b++ {
		if setup != nil {
			setup()
		}
		runtime.ReadMemStats(&m0)
		id := t.begin(name, parent)
		fn(items)
		t.end(id)
		runtime.ReadMemStats(&m1)
		sp := t.spans[id-1]
		ns = append(ns, float64(sp.end-sp.start)/float64(items))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(items))
	}
	return quantile(ns, 0.25), quantile(allocs, 0.5)
}

// writeChrome writes the benchmark's own host-time spans as Chrome
// trace_event JSON.
func (t *tracer) writeChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	us := func(d time.Duration) string {
		return strconv.FormatFloat(float64(d)/float64(time.Microsecond), 'f', 3, 64)
	}
	bw.WriteString("{\"traceEvents\":[\n")
	bw.WriteString(`{"name":"process_name","ph":"M","pid":1,"args":{"name":"benchmark (host time)"}}`)
	for _, sp := range t.spans {
		fmt.Fprintf(bw, ",\n"+`{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%s,"dur":%s,"args":{"span":%d,"parent":%d}}`,
			sp.name, us(sp.start), us(sp.end-sp.start), sp.id, sp.parent)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// Package stats provides lightweight named counters and accumulated timers
// used to instrument the simulated disks, the message network, and the file
// system layers. All methods are safe for concurrent use.
//
// This package is a thin compatibility shim over the typed metrics
// registry in internal/obs: every Counters is backed by an obs.Registry, so
// stringly Add/Get call sites and typed obs handles read and write the same
// values. New code should register typed metrics via Registry(). What keeps
// the shim alive is the benchmark module's three Stats().Registry() reads
// (benchmark/measure.go, benchmark/probes.go): it goes when the benchmark
// reads the obs registries directly.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"bridge/internal/obs"
)

// Counters is a registry of named int64 counters and duration accumulators.
// The zero value is not usable; call New.
type Counters struct {
	r *obs.Registry
}

// New returns an empty counter registry.
func New() *Counters {
	return &Counters{r: obs.NewRegistry()}
}

// Registry returns the typed metrics registry backing this shim. Typed
// handles registered on it share values with the stringly methods here.
func (c *Counters) Registry() *obs.Registry { return c.r }

// Add increments the named counter by delta.
func (c *Counters) Add(name string, delta int64) { c.r.Add(name, delta) }

// AddTime accumulates a duration under the named timer.
func (c *Counters) AddTime(name string, d time.Duration) { c.r.AddTime(name, d) }

// Get returns the current value of the named counter.
func (c *Counters) Get(name string) int64 { return c.r.Get(name) }

// GetTime returns the accumulated duration of the named timer.
func (c *Counters) GetTime(name string) time.Duration { return c.r.GetTime(name) }

// Reset zeroes all counters and timers. Metric registrations survive, so
// typed handles stay live; zero-valued metrics reappear in Snapshot.
func (c *Counters) Reset() { c.r.Reset() }

// Snapshot returns copies of the counter and timer maps. Counter-kind (and
// gauge-kind) metrics land in the first map, timers in the second.
func (c *Counters) Snapshot() (map[string]int64, map[string]time.Duration) {
	vals := c.r.Values()
	n := make(map[string]int64)
	d := make(map[string]time.Duration)
	for _, v := range vals {
		if v.Kind == obs.KindTimer {
			d[v.Name] = v.Time
		} else {
			n[v.Name] = v.Count
		}
	}
	return n, d
}

// String renders all counters and timers sorted by name, one per line. The
// order is deterministic and the render is safe to call concurrently with
// Reset: values are read atomically, so a line is never torn.
func (c *Counters) String() string {
	vals := c.r.Values()
	lines := make([]string, 0, len(vals))
	for _, v := range vals {
		if v.Kind == obs.KindTimer {
			lines = append(lines, fmt.Sprintf("%s (time): %v\n", v.Name, v.Time))
		} else {
			lines = append(lines, fmt.Sprintf("%s: %d\n", v.Name, v.Count))
		}
	}
	sort.Strings(lines)
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
	}
	return b.String()
}

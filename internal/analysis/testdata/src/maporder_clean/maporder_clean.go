// Package maporder_clean holds the map-iteration idioms maporder must
// accept.
package maporder_clean

import (
	"sort"
	"time"

	"bridge/internal/obs"
	"bridge/internal/sim"
)

// Collect-then-sort launders the map order before it can be observed.
func Sorted(m map[string]int) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Order-insensitive reductions are fine.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// So is mutating the map itself.
func Prune(m map[string]bool) {
	for k := range m {
		if !m[k] {
			delete(m, k)
		}
	}
}

// Sending while ranging over the pre-sorted key slice is the idiom the
// analyzer pushes toward.
func SendSorted(q sim.Queue, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		q.Send(m[k])
	}
}

// A slice born inside the loop body cannot carry order out of it.
func PerEntry(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		row := make([]int, 0, len(vs))
		for _, v := range vs {
			row = append(row, v)
		}
		n += len(row)
	}
	return n
}

// Recording events over sorted keys fixes their order in the trace.
func EventSorted(rec *obs.Recorder, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rec.Event(time.Second, 0, "disk.sync", k)
	}
}

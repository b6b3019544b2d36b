// Package maporder_flag exercises every maporder finding.
package maporder_flag

import (
	"time"

	"bridge/internal/obs"
	"bridge/internal/sim"
)

func SendInOrder(q sim.Queue, m map[int]string) {
	for _, v := range m { // want `map iteration order reaches sim\.Send`
		q.Send(v)
	}
}

func EscapingAppend(m map[string]int) []string {
	var names []string
	for name := range m { // want `escapes the loop unsorted`
		names = append(names, name)
	}
	return names
}

func ChannelSend(m map[int]int, ch chan int) {
	for _, v := range m { // want `reaches a channel send`
		ch <- v
	}
}

// Closing queues unblocks their receivers in iteration order: observable.
func CloseInOrder(qs map[int]sim.Queue) {
	for _, q := range qs { // want `map iteration order reaches sim\.Close`
		q.Close()
	}
}

// The recorder's events land in the trace in call order.
func EventInOrder(rec *obs.Recorder, m map[string]int) {
	for name := range m { // want `map iteration order reaches obs\.Event`
		rec.Event(time.Second, 0, "disk.sync", name)
	}
}

// Span ids are handed out in start order.
func StartInOrder(rec *obs.Recorder, m map[int]string) {
	for node, kind := range m { // want `map iteration order reaches obs\.Start`
		rec.Start(0, 0, 0, kind, node).End(time.Second, nil)
	}
}

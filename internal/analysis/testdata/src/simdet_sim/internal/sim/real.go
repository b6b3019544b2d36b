// Package sim sits at a path ending in internal/sim, in a file named
// real.go: no path or file of the runtime is exempt from simdeterminism.
package sim

import "time"

func hostNow() time.Time {
	time.Sleep(time.Microsecond) // want `time\.Sleep is wall-clock`
	return time.Now()            // want `time\.Now is wall-clock`
}

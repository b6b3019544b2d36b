package sim

import (
	"testing"
	"time"
)

// BenchmarkVirtualQueueRoundTrip measures the host-side cost of one
// send/recv pair with a process switch — the fundamental event cost of the
// whole simulator.
func BenchmarkVirtualQueueRoundTrip(b *testing.B) {
	rt := NewVirtual()
	ping := rt.NewQueue("ping")
	pong := rt.NewQueue("pong")
	n := b.N
	b.ReportAllocs()
	rt.Go("echo", func(p Proc) {
		for {
			v, ok := ping.Recv(p)
			if !ok {
				return
			}
			pong.Send(v)
		}
	})
	rt.Go("driver", func(p Proc) {
		for i := 0; i < n; i++ {
			ping.Send(i)
			pong.Recv(p)
		}
		ping.Close()
	})
	b.ResetTimer()
	if err := rt.Wait(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkVirtualTimers measures timer-heap throughput.
func BenchmarkVirtualTimers(b *testing.B) {
	rt := NewVirtual()
	n := b.N
	b.ReportAllocs()
	rt.Go("sleeper", func(p Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	b.ResetTimer()
	if err := rt.Wait(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkVirtualManyProcs measures scheduling with a wide process set.
func BenchmarkVirtualManyProcs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rt := NewVirtual()
		done := rt.NewQueue("done")
		const procs = 64
		for w := 0; w < procs; w++ {
			rt.Go("w", func(p Proc) {
				for j := 0; j < 16; j++ {
					p.Sleep(time.Duration(j) * time.Microsecond)
				}
				done.Send(1)
			})
		}
		rt.Go("join", func(p Proc) {
			for j := 0; j < procs; j++ {
				done.Recv(p)
			}
		})
		if err := rt.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

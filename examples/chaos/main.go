// Chaos: run the robustness stack end to end under deterministic fault
// injection. A lossy message window and a mid-write node crash hit a
// mirrored file; retries and degraded appends carry the writes through,
// health monitoring makes failover reads fast, and after the node restarts
// the file is repaired back to full redundancy — all at exactly
// reproducible virtual times.
//
//	go run ./examples/chaos [-seed N]
//
// Two runs with the same seed print identical output, including the
// fingerprint of the run's Chrome trace (every span, message send and
// injected fault); a different seed injects a different fault pattern.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"log"
	"time"

	"bridge"
	"bridge/internal/fault"
)

func payload(i int) []byte {
	b := make([]byte, bridge.PayloadBytes)
	for j := range b {
		b[j] = byte(i*131 + j*7)
	}
	return b
}

func main() {
	seed := flag.Int64("seed", 42, "fault injector seed")
	flag.Parse()

	inj := bridge.NewFaultInjector(*seed)
	inj.MsgWindow(2*time.Second, 5*time.Second, fault.MsgFaults{
		DropProb:  0.05,
		DupProb:   0.05,
		DelayProb: 0.2,
		DelayMax:  20 * time.Millisecond,
	})
	inj.NodeSchedule(
		fault.NodeEvent{At: 7 * time.Second, Node: 2, Kind: fault.Crash},
		fault.NodeEvent{At: 16 * time.Second, Node: 2, Kind: fault.Restart},
	)

	sys, err := bridge.New(bridge.Config{
		Nodes:      4,
		Health:     &bridge.HealthConfig{},
		Retry:      &bridge.RetryPolicy{Seed: *seed},
		LFSTimeout: time.Second,
		Fault:      inj,
		Obs:        &bridge.ObsConfig{},
	})
	if err != nil {
		log.Fatal(err)
	}

	var traceDump bytes.Buffer
	err = sys.Run(func(s *bridge.Session) error {
		s.SetTimeout(2 * time.Second)
		m, err := s.NewMirror("journal")
		if err != nil {
			return err
		}

		// Write through the chaos: the message window forces retries, and
		// the crash at 7s forces degraded appends into overflow files. The
		// moment the mirror first degrades, the monitor has just marked
		// node 2 Dead — probe the failure behavior right there.
		const n = 40
		probed := false
		for i := 0; i < n; i++ {
			if err := m.Append(payload(i)); err != nil {
				return fmt.Errorf("append %d: %w", i, err)
			}
			if !probed && m.Degraded() {
				probed = true
				fmt.Printf("[%8v] mirror degraded after append %d\n", s.Now(), i)
				states, err := s.Inspect().Health()
				if err != nil {
					return err
				}
				for j, st := range states {
					fmt.Printf("           node %d: %v\n", j, st.State)
				}
				// Failover read: block 2's primary copy lives on the dead
				// node; the shadow serves it fast — no 60s timeout.
				start := s.Now()
				if _, err := m.Read(2); err != nil {
					return err
				}
				fmt.Printf("[%8v] failover read of block 2 took %v\n", s.Now(), s.Now()-start)
				// A direct (unreplicated) touch of the dead node
				// fast-fails with the sentinel.
				if _, err := s.ReadAt("journal", 2); !errors.Is(err, bridge.ErrNodeDown) {
					return fmt.Errorf("expected ErrNodeDown, got %v", err)
				}
				fmt.Printf("[%8v] unreplicated read of block 2 fast-failed: node down\n", s.Now())
			}
			s.Proc().Sleep(300 * time.Millisecond)
		}
		fmt.Printf("[%8v] %d blocks appended; degraded=%v\n", s.Now(), n, m.Degraded())

		// Wait for the scheduled restart and health recovery, then repair.
		if until := 20*time.Second - s.Now(); until > 0 {
			s.Proc().Sleep(until)
		}
		files, err := s.RepairNode(2)
		if err != nil {
			return err
		}
		repaired, err := m.Resilver()
		if err != nil {
			return err
		}
		fmt.Printf("[%8v] node 2 repaired: %d files re-registered, %d blocks resilvered; degraded=%v\n",
			s.Now(), files, repaired, m.Degraded())

		// Verify every block.
		for i := int64(0); i < n; i++ {
			data, err := m.Read(i)
			if err != nil {
				return fmt.Errorf("read %d: %w", i, err)
			}
			if !bytes.Equal(data, payload(int(i))) {
				return fmt.Errorf("block %d corrupt", i)
			}
		}
		fmt.Printf("[%8v] all %d blocks verified intact\n", s.Now(), n)
		return s.Inspect().WriteChromeTrace(&traceDump)
	})
	if err != nil {
		log.Fatal(err)
	}

	st := inj.Stats()
	fmt.Printf("faults injected: %d dropped, %d duplicated, %d delayed msgs; %d crash, %d restart\n",
		st.Get("fault.msg_dropped"), st.Get("fault.msg_duplicated"), st.Get("fault.msg_delayed"),
		st.Get("fault.node_crashes"), st.Get("fault.node_restarts"))
	fmt.Printf("trace fingerprint (seed %d): %08x over %d bytes\n",
		*seed, crc32.ChecksumIEEE(traceDump.Bytes()), traceDump.Len())
}

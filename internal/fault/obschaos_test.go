package fault_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"bridge"
	"bridge/internal/fault"
)

func obsChaosPayload(i int) []byte {
	b := make([]byte, bridge.PayloadBytes)
	for j := range b {
		b[j] = byte(i*17 + j*3)
	}
	return b
}

// runObsChaos executes a seeded chaos scenario — a lossy message window plus
// a node crash and restart mid-stream — with full observability on, and
// returns the Inspector (valid after Run, once the simulation has drained)
// together with the exported Chrome trace. Every hard path is exercised:
// client and server retries, ErrNodeDown fast-fails, degraded mirror writes,
// node repair, and resilvering.
func runObsChaos(t *testing.T, seed int64) (bridge.Inspector, string) {
	t.Helper()
	const n = 30
	inj := bridge.NewFaultInjector(seed)
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
		Nodes:       4,
		DiskBlocks:  2048,
		DiskLatency: time.Millisecond,
		Health:      &bridge.HealthConfig{},
		Retry:       &bridge.RetryPolicy{Attempts: 6},
		LFSTimeout:  time.Second,
		ReadAhead:   2,
		Fault:       inj,
		Obs:         &bridge.ObsConfig{SampleEvery: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var insp bridge.Inspector
	err = sys.Run(func(s *bridge.Session) error {
		insp = s.Inspect()
		s.SetTimeout(2 * time.Second)
		m, err := s.NewMirror("f")
		if err != nil {
			return fmt.Errorf("NewMirror: %w", err)
		}
		// Append through the fault window and the crash: retries, timeouts,
		// ErrNodeDown fast-fails, and degraded writes all open and close
		// spans along the way.
		for i := 0; i < n; i++ {
			if err := m.Append(obsChaosPayload(i)); err != nil {
				return fmt.Errorf("append %d at %v: %w", i, s.Now(), err)
			}
			s.Proc().Sleep(300 * time.Millisecond)
		}
		if until := 20*time.Second - s.Now(); until > 0 {
			s.Proc().Sleep(until)
		}
		if _, err := s.RepairNode(2); err != nil {
			return fmt.Errorf("RepairNode: %w", err)
		}
		if _, err := m.Resilver(); err != nil {
			return fmt.Errorf("Resilver: %w", err)
		}
		for i := int64(0); i < n; i++ {
			data, err := m.Read(i)
			if err != nil {
				return fmt.Errorf("read %d: %w", i, err)
			}
			if !bytes.Equal(data, obsChaosPayload(int(i))) {
				t.Errorf("block %d corrupted through chaos", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run (seed %d): %v", seed, err)
	}
	var trc bytes.Buffer
	if err := insp.WriteChromeTrace(&trc); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return insp, trc.String()
}

// TestObsChaosSpanLifecycle proves that under retries, timeouts, node death,
// and repair, every span is closed exactly once by the time the simulation
// drains, and that failures and retransmissions are visible on the spans.
func TestObsChaosSpanLifecycle(t *testing.T) {
	insp, _ := runObsChaos(t, corruptionSeed(t))
	if n := insp.OpenSpans(); n != 0 {
		t.Errorf("OpenSpans = %d, want 0 after drain", n)
	}
	if n := insp.DoubleEnds(); n != 0 {
		t.Errorf("DoubleEnds = %d, want 0", n)
	}
	if n := insp.DroppedSpans(); n != 0 {
		t.Errorf("DroppedSpans = %d, want 0 (under SpanCap)", n)
	}
	errSpans, annotated := 0, 0
	for _, sp := range insp.Spans() {
		if sp.Err != "" {
			errSpans++
		}
		// Every device access carries its block range; count the
		// annotations the fault window adds above the disk.
		if len(sp.Annotations) > 0 && !strings.HasPrefix(sp.Kind, "disk.") {
			annotated++
		}
	}
	if errSpans == 0 {
		t.Error("no failed spans despite a node crash; errors should be visible on spans")
	}
	if annotated == 0 {
		t.Error("no annotated spans despite the fault window; retries should annotate")
	}
}

// TestObsReadRepairSpanLifecycle covers the remaining hard span path: a
// read that detects silent corruption and repairs it in place from the
// mirror copy must still close every span exactly once.
func TestObsReadRepairSpanLifecycle(t *testing.T) {
	inj := bridge.NewFaultInjector(corruptionSeed(t))
	sys, err := bridge.New(bridge.Config{
		Nodes:       4,
		DiskBlocks:  256,
		DiskLatency: time.Millisecond,
		Fault:       inj,
		Obs:         &bridge.ObsConfig{},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var insp bridge.Inspector
	err = sys.Run(func(s *bridge.Session) error {
		insp = s.Inspect()
		m, err := s.NewMirror("mf")
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			if err := m.Append(obsChaosPayload(i)); err != nil {
				return fmt.Errorf("append %d: %w", i, err)
			}
		}
		// Flip a bit in the first primary copy on node 0's medium, then
		// scrub to confirm it (invalidating the cached copy that masks it).
		ds := s.Cluster().Nodes[0].FS().DataStart()
		inj.Bitrot("disk0", ds)
		if _, err := s.Scrub(0); err != nil {
			return fmt.Errorf("scrub: %w", err)
		}
		for i := int64(0); i < 8; i++ {
			data, err := m.Read(i)
			if err != nil {
				return fmt.Errorf("read %d: %w", i, err)
			}
			if !bytes.Equal(data, obsChaosPayload(int(i))) {
				t.Errorf("block %d wrong after read-repair", i)
			}
		}
		if got := s.Metrics().Counter("bridge.readrepair_mirror"); got == 0 {
			t.Error("no mirror read-repair recorded; the corrupt read did not take the repair path")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := insp.OpenSpans(); n != 0 {
		t.Errorf("OpenSpans = %d, want 0 after read-repair run", n)
	}
	if n := insp.DoubleEnds(); n != 0 {
		t.Errorf("DoubleEnds = %d, want 0", n)
	}
}

// TestObsChaosTraceReplaysExactly requires the Chrome trace of a full chaos
// run to be byte-identical across same-seed runs. When BRIDGE_TRACE_OUT is
// set the first run's trace is written there (the CI artifact).
func TestObsChaosTraceReplaysExactly(t *testing.T) {
	seed := corruptionSeed(t)
	_, tr1 := runObsChaos(t, seed)
	if t.Failed() {
		return
	}
	if out := os.Getenv("BRIDGE_TRACE_OUT"); out != "" {
		if err := os.WriteFile(out, []byte(tr1), 0o644); err != nil {
			t.Fatalf("write %s: %v", out, err)
		}
	}
	_, tr2 := runObsChaos(t, seed)
	if tr1 != tr2 {
		t.Error("same seed produced different Chrome traces")
	}
	_, tr3 := runObsChaos(t, seed+1000)
	if tr3 == tr1 {
		t.Error("different seed replayed the first trace exactly")
	}
}

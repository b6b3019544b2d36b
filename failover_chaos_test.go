package bridge

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"bridge/internal/chaosseed"
	"bridge/internal/fault"
	"bridge/internal/msg"
)

// failoverSeed reads the chaos seed from BRIDGE_FAILOVER_SEED (CI matrix),
// defaulting to 7. A test that fails under it prints the command that
// repeats it.
func failoverSeed(t *testing.T) int64 {
	t.Helper()
	seed, _ := chaosseed.FromEnv(t, "BRIDGE_FAILOVER_SEED", 7)
	chaosseed.Repro(t, "BRIDGE_FAILOVER_SEED", seed, ".")
	return seed
}

// failoverWorkload is the deterministic client program whose observed
// results form the byte trace: every append, periodic stat, every read
// (first payload bytes), a rename, and the final listing. Anything a
// failover changed about what the client sees would change these bytes.
func failoverWorkload(s *Session, buf *bytes.Buffer) error {
	const n = 60
	if err := s.Create("f"); err != nil {
		return err
	}
	fmt.Fprintf(buf, "create f\n")
	for i := 0; i < n; i++ {
		if err := s.Append("f", robustPayload(i)); err != nil {
			return fmt.Errorf("append %d: %w", i, err)
		}
		fmt.Fprintf(buf, "append %d ok\n", i)
		if i%16 == 15 {
			info, err := s.Stat("f")
			if err != nil {
				return fmt.Errorf("stat at %d: %w", i, err)
			}
			fmt.Fprintf(buf, "stat %d blocks\n", info.Blocks)
		}
	}
	for i := 0; i < n; i++ {
		b, err := s.Read("f")
		if err != nil {
			return fmt.Errorf("read %d: %w", i, err)
		}
		fmt.Fprintf(buf, "read %d %x\n", i, b[:8])
	}
	if _, err := s.Rename("f", "g"); err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	fmt.Fprintf(buf, "rename f g\n")
	names, err := s.Client().List()
	if err != nil {
		return fmt.Errorf("list: %w", err)
	}
	fmt.Fprintf(buf, "list %v\n", names)
	return nil
}

// TestFailoverChaosByteIdenticalTrace is the acceptance gate for
// replicated metadata: the same seeded workload runs crash-free and then
// under a leader-kill schedule (the current leader killed twice
// mid-workload, each revived later), and the client-observed byte traces
// must be identical — a failover may cost time, never correctness. Both
// runs end with a clean fsck of every volume. With BRIDGE_FAILOVER_TRACE_OUT
// set, the chaos trace is dumped to <path>.seed<seed> so CI can prove
// byte-identity across processes too.
func TestFailoverChaosByteIdenticalTrace(t *testing.T) {
	seed := failoverSeed(t)
	run := func(inj *FaultInjector, dir string) (*bytes.Buffer, error) {
		cfg := Config{
			Nodes: 4, DiskBlocks: 512, Replicas: 3,
			Journal: 64, DataDir: dir, Fault: inj,
		}
		sys, err := New(cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = sys.Run(func(s *Session) error {
			if err := failoverWorkload(s, &buf); err != nil {
				return err
			}
			for i := 0; i < s.Nodes(); i++ {
				ck, err := s.Fsck(i)
				if err != nil {
					return fmt.Errorf("fsck %d: %w", i, err)
				}
				if len(ck.Problems) != 0 {
					return fmt.Errorf("fsck %d: problems %v", i, ck.Problems)
				}
				fmt.Fprintf(&buf, "fsck %d clean\n", i)
			}
			return nil
		})
		return &buf, err
	}

	want, err := run(nil, t.TempDir())
	if err != nil {
		t.Fatalf("crash-free run: %v", err)
	}

	inj := NewFaultInjector(seed)
	inj.ServerSchedule(
		fault.ServerEvent{At: 400 * time.Millisecond, Server: -1, Kind: fault.Kill},
		fault.ServerEvent{At: 1200 * time.Millisecond, Server: -1, Kind: fault.Restart},
		fault.ServerEvent{At: 2000 * time.Millisecond, Server: -1, Kind: fault.Kill},
		fault.ServerEvent{At: 2800 * time.Millisecond, Server: -1, Kind: fault.Restart},
	)
	got, err := run(inj, t.TempDir())
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if kills := chaosStat(inj, "fault.server_kills"); kills != 2 {
		t.Errorf("server kills executed = %d, want 2", kills)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("client-observed trace diverged under leader-kill chaos:\n--- crash-free ---\n%s\n--- chaos ---\n%s",
			firstDiff(want.String(), got.String()), "")
	}
	if out := os.Getenv("BRIDGE_FAILOVER_TRACE_OUT"); out != "" {
		path := fmt.Sprintf("%s.seed%d", out, seed)
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatalf("dump trace: %v", err)
		}
		t.Logf("chaos trace dumped to %s", path)
	}
}

// chaosStat reads one injector counter by name.
func chaosStat(inj *FaultInjector, name string) int64 {
	for _, v := range inj.Stats().Registry().Values() {
		if v.Name == name {
			return v.Count
		}
	}
	return -1
}

// firstDiff returns the context around the first differing line, keeping
// failure output readable for multi-hundred-line traces.
func firstDiff(want, got string) string {
	w, g := bytes.Split([]byte(want), []byte("\n")), bytes.Split([]byte(got), []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("line %d:\nwant: %s\ngot:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(w), len(g))
}

// TestFailoverMinorityLeaderCannotCommit is the facade split-brain gate: a
// leader partitioned away from both peers must refuse mutations, the
// majority side elects a replacement that commits them exactly once, and
// after the partition heals every replica converges on one directory.
func TestFailoverMinorityLeaderCannotCommit(t *testing.T) {
	inj := NewFaultInjector(failoverSeed(t))
	sys, err := New(Config{Nodes: 4, DiskBlocks: 256, Replicas: 3, Fault: inj})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = sys.Run(func(s *Session) error {
		if err := s.Create("before"); err != nil {
			return err
		}
		lead := s.LeaderServer(0)
		for lead < 0 {
			return errors.New("no leader after a successful create")
		}
		// Cut the leader's replica node off from both peers' nodes. The
		// replica processes run on nodes Nodes+1+i.
		base := s.Nodes() + 1
		start, heal := s.Now(), s.Now()+4*time.Second
		for i := 0; i < 3; i++ {
			if i != lead {
				inj.Partition(start, heal, msg.NodeID(base+lead), msg.NodeID(base+i))
			}
		}
		stranded := s.Inspect().Raft(0)[lead].Commit
		if err := s.Create("during"); err != nil {
			return fmt.Errorf("create during partition: %w", err)
		}
		maj := s.LeaderServer(0)
		if maj == lead {
			return fmt.Errorf("stranded replica %d still serves as leader", lead)
		}
		if got := s.Inspect().Raft(0)[lead].Commit; got > stranded {
			return fmt.Errorf("stranded leader advanced commit %d -> %d without quorum", stranded, got)
		}
		// Heal, then require convergence: one leader's commit index, on
		// all three replicas.
		for s.Now() < heal {
			s.Proc().Sleep(100 * time.Millisecond)
		}
		s.Proc().Sleep(time.Second)
		st := s.Inspect().Raft(0)
		for i := 1; i < len(st); i++ {
			if st[i].Commit != st[0].Commit {
				return fmt.Errorf("replicas diverged after heal: %+v", st)
			}
		}
		names, err := s.Client().List()
		if err != nil {
			return err
		}
		if len(names) != 2 || names[0] != "before" || names[1] != "during" {
			return fmt.Errorf("directory = %v, want [before during]", names)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

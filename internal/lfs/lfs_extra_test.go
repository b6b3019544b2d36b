package lfs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

func TestUsageAndCheckOverProtocol(t *testing.T) {
	rt, net, nodes := testCluster(2, Config{DiskBlocks: 512, Timing: disk.FixedTiming{}})
	rt.Go("client", func(p sim.Proc) {
		defer stopAll(nodes)
		c := NewClient(p, net, 0, "cli")
		node := nodes[0].ID
		total0, free0, err := c.Usage(node)
		if err != nil || total0 != 512 {
			t.Errorf("Usage = %d/%d, %v", total0, free0, err)
			return
		}
		c.Create(node, 1)
		for i := 0; i < 10; i++ {
			c.Write(node, 1, uint32(i), []byte("x"), -1)
		}
		_, free1, err := c.Usage(node)
		if err != nil || free0-free1 != 10 {
			t.Errorf("Usage after writes: free %d -> %d, %v", free0, free1, err)
		}
		r, err := call[CheckResp](c, node, CheckReq{}, 512)
		if err != nil {
			t.Errorf("Check: %v", err)
			return
		}
		if rep := r.Report; !rep.OK() || rep.Files != 1 || rep.ChainBlocks != 10 {
			t.Errorf("Check = %+v", rep)
		}
		r, err = call[CheckResp](c, node, CheckReq{Repair: true}, 2*512)
		if err != nil || r.Fixes != 0 || !r.Report.OK() {
			t.Errorf("Repair clean volume = %d fixes, %v", r.Fixes, err)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestUnknownLFSRequest(t *testing.T) {
	rt, net, nodes := testCluster(1, Config{DiskBlocks: 256, Timing: disk.FixedTiming{}})
	rt.Go("client", func(p sim.Proc) {
		defer stopAll(nodes)
		c := NewClient(p, net, 0, "cli")
		type junk struct{}
		// The reply has no kind the caller could have expected; whatever
		// kind it does expect, it gets the failure as an error, not a panic.
		_, err := Reply[CreateResp](c.C.Call(lfsAddr(nodes[0].ID), junk{}, 8))
		if err == nil || !strings.Contains(err.Error(), "lfs: unknown request") {
			t.Errorf("unknown request = %v, want the server's failure", err)
		}
		_, err = Reply[TreeResp](c.C.Call(nodes[0].AgentAddr(), junk{}, 8))
		if err == nil || !strings.Contains(err.Error(), "agent: unknown request") {
			t.Errorf("unknown agent request = %v, want the agent's failure", err)
		}
		// Server still alive.
		if err := c.Create(nodes[0].ID, 5); err != nil {
			t.Errorf("Create after junk: %v", err)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestStatusErrRoundTrip(t *testing.T) {
	for _, base := range []error{
		efs.ErrNotFound, efs.ErrExists, efs.ErrNoSpace, efs.ErrBadBlockNum,
		efs.ErrNotAppend, efs.ErrTooLarge, efs.ErrCorrupt,
	} {
		st := StatusFor(fmt.Errorf("file 7: %w", base))
		back := Err(st)
		if !errors.Is(back, base) || !strings.Contains(back.Error(), "file 7") {
			t.Errorf("round trip of %v = %v", base, back)
		}
		for _, other := range classes[CodeNotFound:] {
			if other != base && errors.Is(back, other) {
				t.Errorf("round trip of %v is also %v", base, other)
			}
		}
	}
	if Err(StatusFor(nil)) != nil {
		t.Error("nil error did not round trip to nil")
	}
	// An error of no EFS class keeps its text, and so does an unknown code.
	for _, st := range []msg.Status{StatusFor(errors.New("disk on fire")), msg.Failed(200, "disk on fire")} {
		if back := Err(st); back == nil || !strings.Contains(back.Error(), "disk on fire") {
			t.Errorf("Err(%+v) = %v", st.Fail, back)
		}
	}
	// Detail prefix deduplication.
	st := msg.Failed(CodeNotFound, efs.ErrNotFound.Error()+": file 7")
	if got := Err(st).Error(); strings.Count(got, "efs: file not found") != 1 {
		t.Errorf("duplicated prefix: %q", got)
	}
}

func TestWireSizeCoversProtocol(t *testing.T) {
	bodies := []any{
		CreateReq{}, CreateResp{}, DeleteReq{}, DeleteResp{},
		ReadReq{}, ReadResp{Data: make([]byte, 100)},
		WriteReq{Data: make([]byte, 100)}, WriteResp{},
		StatReq{}, StatResp{}, SyncReq{}, SyncResp{},
		CheckReq{}, CheckResp{}, UsageReq{}, UsageResp{},
		struct{}{}, // default case
	}
	for _, b := range bodies {
		if WireSize(b) <= 0 {
			t.Errorf("WireSize(%T) = %d", b, WireSize(b))
		}
	}
	if WireSize(ReadResp{Data: make([]byte, 500)}) <= WireSize(ReadResp{}) {
		t.Error("ReadResp size does not grow with payload")
	}
}

func TestNodeBootFailureAnswersTyped(t *testing.T) {
	// A node whose disk is too small to format answers every request with
	// the boot error as a typed status, so clients learn why at once
	// instead of timing out.
	rt := sim.NewVirtual()
	net := msg.NewNetwork(rt, msg.DefaultConfig())
	bad, err := StartNode(rt, net, 1, Config{DiskBlocks: 4, Timing: disk.FixedTiming{}}, nil)
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	rt.Go("client", func(p sim.Proc) {
		defer bad.Stop()
		c := NewClient(p, net, 0, "cli")
		_, err := Reply[StatResp](c.C.CallTimeout(lfsAddr(1), StatReq{FileID: 1}, 8, 50*time.Millisecond))
		if !errors.Is(err, errIO) || !strings.Contains(err.Error(), "cannot boot its volume") {
			t.Errorf("call to unbootable node: %v; want the boot failure as a typed status", err)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// A call that walks a chain takes as long as the chain, and on a fragmented
// volume every block is a disk access. Its bound grows with the blocks it may
// walk, so a check, a repair and a delete that each take longer than the
// client's bound still answer; a delete that owns up to no walk times out.
func TestChainWalksOutlastTheBound(t *testing.T) {
	const files, blocks = 8, 100
	rt, net, nodes := testCluster(1, Config{DiskBlocks: 1024, Timing: disk.FixedTiming{Latency: 15 * time.Millisecond}})
	rt.Go("client", func(p sim.Proc) {
		defer stopAll(nodes)
		c := NewClient(p, net, 0, "cli")
		node := nodes[0].ID
		// A block of each file in turn: no two blocks of a file share a track.
		for f := uint32(1); f <= files; f++ {
			c.Create(node, f)
		}
		for b := uint32(0); b < blocks; b++ {
			for f := uint32(1); f <= files; f++ {
				if _, err := c.Write(node, f, b, []byte("x"), -1); err != nil {
					t.Error(err)
					return
				}
			}
		}
		c.Timeout = time.Second
		walks := []struct {
			name string
			run  func() error
		}{
			{"Check", func() error { _, err := call[CheckResp](c, node, CheckReq{}, 1024); return err }},
			{"Repair", func() error { _, err := call[CheckResp](c, node, CheckReq{Repair: true}, 2*1024); return err }},
			{"Delete", func() error { _, err := c.Delete(node, 1, blocks, true); return err }},
		}
		for _, w := range walks {
			start := p.Now()
			if err := w.run(); err != nil || p.Now()-start <= c.Timeout {
				t.Errorf("%s = %v after %v; want success after more than the %v bound", w.name, err, p.Now()-start, c.Timeout)
			}
		}
		if _, err := c.Delete(node, 2, 0, true); !errors.Is(err, msg.ErrTimeout) {
			t.Errorf("Delete with no walk allowed = %v, want msg.ErrTimeout", err)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

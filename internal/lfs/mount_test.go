package lfs

import (
	"errors"
	"slices"
	"testing"
	"time"

	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// readLog records the block of every device read; when failTo is set, the
// first read of a block in [fail, failTo) fails.
type readLog struct {
	blocks       []int
	fail, failTo int
}

var errInjected = errors.New("injected read error")

func (l *readLog) BeforeOp(_ time.Duration, _ string, op disk.Op, bn int) (time.Duration, error) {
	if op != disk.OpRead {
		return 0, nil
	}
	l.blocks = append(l.blocks, bn)
	if bn >= l.fail && bn < l.failTo {
		l.failTo = 0
		return 0, errInjected
	}
	return 0, nil
}

// bootOn starts node 1 on its store in cfg.DiskDir with log watching every
// device access from the mount on, runs fn as a client and closes the store.
func bootOn(t *testing.T, cfg Config, log *readLog, fn func(p sim.Proc, n *Node, c *Client)) {
	t.Helper()
	rt := sim.NewVirtual()
	net := msg.NewNetwork(rt, msg.DefaultConfig())
	node, err := StartNode(rt, net, 1, cfg, nil)
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	node.Disk.SetFault(log, "node1")
	rt.Go("client", func(p sim.Proc) {
		defer node.Stop()
		fn(p, node, NewClient(p, net, 0, "cli"))
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if err := node.Disk.Store().Close(); err != nil {
		t.Fatal(err)
	}
}

// fillAndSync creates files files of 8 blocks on node n and syncs.
func fillAndSync(t *testing.T, n *Node, c *Client, files uint32) {
	t.Helper()
	for f := uint32(1); f <= files; f++ {
		if err := c.Create(n.ID, f); err != nil {
			t.Fatal(err)
		}
		for b := uint32(0); b < 8; b++ {
			if _, err := c.Write(n.ID, f, b, []byte("x"), -1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Sync(n.ID); err != nil {
		t.Fatal(err)
	}
}

// dirtyStore opens and closes the store in dir without a Sync, as a killed
// process leaves it.
func dirtyStore(t *testing.T, dir string, blocks int) {
	t.Helper()
	st, err := disk.OpenFileStore(StorePath(dir, 1), efs.BlockSize, blocks)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
}

// TestCleanStoreMountsWithoutWalk: a journaled node booted on a store that
// was clean at open replays its journal and serves having read only its
// superblock, bitmap and journal blocks. The same store left dirty — opened
// and closed without a Sync — walks every chain before the node serves, and
// a Restart walks whatever its store held.
func TestCleanStoreMountsWithoutWalk(t *testing.T) {
	const blocks, journal, buckets, files = 1024, 32, 4, 4
	cfg := Config{DiskBlocks: blocks, DiskDir: t.TempDir(),
		EFS: efs.Options{JournalBlocks: journal, DirBuckets: buckets}}
	// recovery returns the node's report and the blocks read before it.
	recovery := func(n *Node, c *Client, log *readLog) (RecoveryReport, []int) {
		t.Helper()
		r, err := call[RecoveryResp](c, n.ID, RecoveryReq{}, blocks)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		return r.Report, append([]int(nil), log.blocks...)
	}
	walked := func(what string, rep RecoveryReport) {
		t.Helper()
		if rep.CleanAtOpen || !rep.Clean() || rep.Fsck.Files != files {
			t.Errorf("%s: recovery %+v, want a clean walk of %d files", what, rep, files)
		}
	}

	bootOn(t, cfg, &readLog{}, func(p sim.Proc, n *Node, c *Client) { fillAndSync(t, n, c, files) })

	var dataStart int
	log := &readLog{}
	bootOn(t, cfg, log, func(p sim.Proc, n *Node, c *Client) {
		rep, read := recovery(n, c, log)
		dataStart = n.FS().DataStart()
		if !rep.Journaled || !rep.CleanAtOpen || rep.Fsck.Files != 0 {
			t.Errorf("clean store: recovery %+v, want clean at open and not walked", rep)
		}
		for _, bn := range read {
			super, bitmap, jnl := bn == 0, bn > buckets && bn < dataStart, bn >= blocks-journal
			if !super && !bitmap && !jnl {
				t.Errorf("clean store: block %d read before the node served; want only the superblock, bitmap and journal", bn)
			}
		}
		n.Crash(p.Now())
		n.Restart(p.Runtime())
		rep, _ = recovery(n, c, log)
		walked("restart", rep)
	})

	dirtyStore(t, cfg.DiskDir, blocks)
	log = &readLog{}
	bootOn(t, cfg, log, func(p sim.Proc, n *Node, c *Client) {
		rep, read := recovery(n, c, log)
		walked("dirty store", rep)
		data := 0
		for _, bn := range read {
			if bn >= dataStart && bn < blocks-journal {
				data++
			}
		}
		if data == 0 {
			t.Errorf("dirty store: no data block read before the node served")
		}
	})
}

// TestFailedWalkKeepsStoreDirty: a store whose walk a crash cut short, or
// whose walk found a problem, stays dirty through the node's Syncs, whether
// the walk was a dirty mount's or a check's, so every later open walks it
// again until a walk passes; the Sync after a passing walk marks it clean.
func TestFailedWalkKeepsStoreDirty(t *testing.T) {
	const blocks, journal, files = 1024, 32, 4
	cfg := Config{DiskBlocks: blocks, DiskDir: t.TempDir(), EFS: efs.Options{JournalBlocks: journal}}
	var dataStart int
	bootOn(t, cfg, &readLog{}, func(p sim.Proc, n *Node, c *Client) {
		fillAndSync(t, n, c, files)
		dataStart = n.FS().DataStart()
	})
	// run boots the node, failing the first read of a data block when
	// fail is set, and returns its recovery report; with check it then
	// sends a CheckReq, which must fail. Either way it ends with a Sync.
	run := func(fail, check bool) RecoveryReport {
		t.Helper()
		var rep RecoveryReport
		log := &readLog{}
		if fail {
			log.fail, log.failTo = dataStart, blocks-journal
		}
		bootOn(t, cfg, log, func(p sim.Proc, n *Node, c *Client) {
			r, err := call[RecoveryResp](c, n.ID, RecoveryReq{}, blocks)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			rep = r.Report
			if check {
				if ck, err := call[CheckResp](c, n.ID, CheckReq{}, blocks); err == nil && ck.Report.OK() {
					t.Errorf("a check over a failed read passed")
				}
			}
			if err := c.Sync(n.ID); err != nil {
				t.Fatal(err)
			}
		})
		return rep
	}

	// A dirty mount's walk cut short by a crash, after the replay's
	// barrier synced the store.
	dirtyStore(t, cfg.DiskDir, blocks)
	log := &readLog{}
	bootOn(t, cfg, log, func(p sim.Proc, n *Node, c *Client) {
		for !slices.ContainsFunc(log.blocks, func(bn int) bool { return bn >= dataStart && bn < blocks-journal }) {
			p.Sleep(time.Millisecond)
		}
		n.Crash(p.Now())
	})
	if rep := run(false, false); rep.CleanAtOpen || !rep.Clean() {
		t.Errorf("after a walk a crash cut short: recovery %+v, want a clean walk", rep)
	}

	dirtyStore(t, cfg.DiskDir, blocks)
	if rep := run(true, false); rep.CleanAtOpen || rep.Clean() {
		t.Fatalf("dirty mount over a failed read: recovery %+v, want a walk that found a problem", rep)
	}
	if rep := run(false, false); rep.CleanAtOpen || !rep.Clean() {
		t.Errorf("after a failed mount walk: recovery %+v, want a clean walk", rep)
	}
	// Clean at open, the mount reads no data block: the check trips.
	if rep := run(true, true); !rep.CleanAtOpen {
		t.Errorf("after a passing walk and a Sync: recovery %+v, want clean at open", rep)
	}
	if rep := run(false, false); rep.CleanAtOpen || !rep.Clean() {
		t.Errorf("after a failed check: recovery %+v, want a clean walk", rep)
	}
	if rep := run(false, false); !rep.CleanAtOpen {
		t.Errorf("after a passing walk and a Sync: recovery %+v, want clean at open", rep)
	}
}

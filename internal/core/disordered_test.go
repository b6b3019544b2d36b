package core

import (
	"bytes"
	"errors"
	"testing"

	"bridge/internal/distrib"
	"bridge/internal/lfs"
	"bridge/internal/sim"
)

func TestDisorderedRoundTrip(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		meta, err := c.CreateDisordered("d")
		if err != nil {
			t.Errorf("CreateDisordered: %v", err)
			return
		}
		if meta.Spec.Kind != distrib.Disordered || meta.Chain == nil {
			t.Errorf("meta = %+v, want disordered with chain", meta)
		}
		const n = 23
		for i := 0; i < n; i++ {
			if err := c.SeqWrite("d", payload(i)); err != nil {
				t.Errorf("SeqWrite %d: %v", i, err)
				return
			}
		}
		// Sequential read follows the chain.
		if _, err := c.Open("d"); err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		for i := 0; i < n; i++ {
			data, eof, err := c.SeqRead("d")
			if err != nil || eof || !bytes.Equal(data, payload(i)) {
				t.Errorf("SeqRead %d: eof=%v err=%v", i, eof, err)
				return
			}
		}
		if _, eof, _ := c.SeqRead("d"); !eof {
			t.Error("no EOF after last block")
		}
		// Random access works (slowly).
		for _, i := range []int64{0, 7, 22, 3} {
			data, err := c.ReadAt("d", i)
			if err != nil || !bytes.Equal(data, payload(int(i))) {
				t.Errorf("ReadAt(%d): %v", i, err)
			}
		}
		if _, err := c.ReadAt("d", n); !errors.Is(err, ErrEOF) {
			t.Errorf("ReadAt past end = %v, want ErrEOF", err)
		}
	})
}

func TestDisorderedBlocksAreScattered(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		c.CreateDisordered("d")
		const n = 40
		for i := 0; i < n; i++ {
			c.SeqWrite("d", payload(i))
		}
		meta, err := c.Open("d")
		if err != nil || meta.Chain == nil {
			t.Errorf("Open = %+v, %v", meta, err)
			return
		}
		// Every node should hold some blocks, none all of them.
		var total int64
		for i, cnt := range meta.Chain.LocalCounts {
			if cnt == 0 {
				t.Errorf("node %d holds no blocks; not scattered", i)
			}
			if cnt == n {
				t.Errorf("node %d holds every block", i)
			}
			if got := meta.LocalBlocks(i); got != cnt {
				t.Errorf("LocalBlocks(%d) = %d, want %d", i, got, cnt)
			}
			total += cnt
		}
		if total != n {
			t.Errorf("chain counts sum to %d, want %d", total, n)
		}
		// No formulaic layout exists.
		if _, err := meta.Layout(); err == nil {
			t.Error("Layout() for disordered file succeeded")
		}
	})
}

func TestDisorderedOverwrite(t *testing.T) {
	withCluster(t, fastCfg(3), func(p sim.Proc, cl *Cluster, c *Client) {
		c.CreateDisordered("d")
		for i := 0; i < 9; i++ {
			c.SeqWrite("d", payload(i))
		}
		if err := c.WriteAt("d", 4, []byte("patched")); err != nil {
			t.Errorf("WriteAt: %v", err)
			return
		}
		data, err := c.ReadAt("d", 4)
		if err != nil || string(data) != "patched" {
			t.Errorf("ReadAt(4) = %q, %v", data, err)
		}
		// The chain is intact around the overwrite.
		for _, i := range []int64{3, 5, 8} {
			data, err := c.ReadAt("d", i)
			if err != nil || !bytes.Equal(data, payload(int(i))) {
				t.Errorf("neighbor %d damaged: %v", i, err)
			}
		}
		// Gap writes rejected.
		if err := c.WriteAt("d", 99, []byte("x")); !errors.Is(err, ErrBadArg) {
			t.Errorf("gap write = %v, want ErrBadArg", err)
		}
	})
}

func TestDisorderedRandomAccessIsSlow(t *testing.T) {
	// The paper's trade-off, measured: random access walks the chain.
	withCluster(t, wrenCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		c.CreateDisordered("d")
		c.Create("rr")
		const n = 32
		for i := 0; i < n; i++ {
			c.SeqWrite("d", payload(i))
			c.SeqWrite("rr", payload(i))
		}
		start := p.Now()
		if _, err := c.ReadAt("d", n-1); err != nil {
			t.Errorf("disordered ReadAt: %v", err)
			return
		}
		chainTime := p.Now() - start
		start = p.Now()
		if _, err := c.ReadAt("rr", n-1); err != nil {
			t.Errorf("round-robin ReadAt: %v", err)
			return
		}
		rrTime := p.Now() - start
		if chainTime < 5*rrTime {
			t.Errorf("disordered random read (%v) not dramatically slower than round-robin (%v)", chainTime, rrTime)
		}
	})
}

func TestDisorderedDelete(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		c.CreateDisordered("d")
		const n = 15
		for i := 0; i < n; i++ {
			c.SeqWrite("d", payload(i))
		}
		freed, err := c.Delete("d")
		if err != nil || freed != n {
			t.Errorf("Delete = %d, %v; want %d", freed, err, n)
		}
		if _, err := c.Open("d"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Open after delete = %v", err)
		}
	})
}

func TestDisorderedSnapshotRestore(t *testing.T) {
	// The chain state must survive a directory snapshot/restore cycle
	// (the path bridgefs takes between invocations).
	rt := sim.NewVirtual()
	cl, err := StartCluster(rt, fastCfg(3))
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	rt.Go("phase1", func(p sim.Proc) {
		defer cl.Stop()
		c := cl.NewClient(p, 0, "snap-cli")
		defer c.Close()
		c.CreateDisordered("d")
		for i := 0; i < 8; i++ {
			c.SeqWrite("d", payload(i))
		}
		// Flush the write-behind LFS metadata so the disks remount
		// cleanly (what bridgefs does before it exits).
		lc := lfs.NewClient(p, cl.Net, 0, "snap-sync")
		defer lc.C.Close()
		for _, id := range cl.NodeIDs() {
			if err := lc.Sync(id); err != nil {
				t.Errorf("sync node %d: %v", id, err)
			}
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("phase1: %v", err)
	}
	snap := cl.Servers[0].Snapshot()

	// Second life: the same disks remounted, with the directory restored.
	rt2 := sim.NewVirtual()
	cfg := fastCfg(3)
	cfg.Disks = append(cfg.Disks, cl.Nodes[0].Disk, cl.Nodes[1].Disk, cl.Nodes[2].Disk)
	cl2, err := StartCluster(rt2, cfg)
	if err != nil {
		t.Fatalf("StartCluster 2: %v", err)
	}
	cl2.Servers[0].Restore(snap)
	rt2.Go("phase2", func(p sim.Proc) {
		defer cl2.Stop()
		c := cl2.NewClient(p, 0, "snap-cli2")
		defer c.Close()
		meta, err := c.Open("d")
		if err != nil || meta.Blocks != 8 {
			t.Errorf("Open after restore = %+v, %v", meta, err)
			return
		}
		for i := 0; i < 8; i++ {
			data, eof, err := c.SeqRead("d")
			if err != nil || eof || !bytes.Equal(data, payload(i)) {
				t.Errorf("read %d after restore: eof=%v err=%v", i, eof, err)
				return
			}
		}
		// And the chain still appends correctly.
		if err := c.SeqWrite("d", payload(8)); err != nil {
			t.Errorf("append after restore: %v", err)
			return
		}
		data, err := c.ReadAt("d", 8)
		if err != nil || !bytes.Equal(data, payload(8)) {
			t.Errorf("ReadAt(8) after restore: %v", err)
		}
	})
	if err := rt2.Wait(); err != nil {
		t.Fatalf("phase2: %v", err)
	}
}

func TestDisorderedAppendCost(t *testing.T) {
	// Appends cost ~3 LFS ops (write new + read/modify/write old tail),
	// so roughly 2x the interleaved append — the price of the chain.
	withCluster(t, wrenCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		c.CreateDisordered("d")
		c.Create("rr")
		c.SeqWrite("d", payload(0))
		c.SeqWrite("rr", payload(0))
		start := p.Now()
		for i := 1; i <= 8; i++ {
			c.SeqWrite("d", payload(i))
		}
		chainCost := p.Now() - start
		start = p.Now()
		for i := 1; i <= 8; i++ {
			c.SeqWrite("rr", payload(i))
		}
		rrCost := p.Now() - start
		if chainCost <= rrCost {
			t.Errorf("disordered append (%v) not more expensive than interleaved (%v)", chainCost, rrCost)
		}
		if chainCost > 4*rrCost {
			t.Errorf("disordered append (%v) unreasonably expensive vs interleaved (%v)", chainCost, rrCost)
		}
	})
}

func TestDisorderedCursorsIndependent(t *testing.T) {
	withCluster(t, fastCfg(3), func(p sim.Proc, cl *Cluster, c *Client) {
		c.CreateDisordered("d")
		for i := 0; i < 6; i++ {
			c.SeqWrite("d", payload(i))
		}
		c2 := cl.NewClient(p, 0, "second-d")
		defer c2.Close()
		d1, _, _ := c.SeqRead("d")
		c.SeqRead("d")
		d2, _, _ := c2.SeqRead("d")
		if !bytes.Equal(d1, payload(0)) || !bytes.Equal(d2, payload(0)) {
			t.Error("cursors not independent")
		}
	})
}

package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"bridge/internal/disk"
	"bridge/internal/distrib"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// fastCfg is a cluster with zero disk latency for pure-correctness tests.
func fastCfg(p int) ClusterConfig {
	return ClusterConfig{
		P:    p,
		Node: lfs.Config{DiskBlocks: 2048, Timing: disk.FixedTiming{}},
	}
}

// wrenCfg is a cluster with paper-speed disks for timing-sensitive tests.
func wrenCfg(p int) ClusterConfig {
	return ClusterConfig{
		P:    p,
		Node: lfs.Config{DiskBlocks: 4096, Timing: disk.FixedTiming{Latency: 15 * time.Millisecond}},
	}
}

// withCluster boots a cluster, runs fn as a client process on node 0, and
// shuts everything down.
func withCluster(t *testing.T, cfg ClusterConfig, fn func(p sim.Proc, cl *Cluster, c *Client)) {
	t.Helper()
	rt := sim.NewVirtual()
	cl, err := StartCluster(rt, cfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	rt.Go("test-client", func(p sim.Proc) {
		defer cl.Stop()
		c := cl.NewClient(p, 0, "test-cli")
		defer c.Close()
		fn(p, cl, c)
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func payload(i int) []byte {
	b := make([]byte, 64)
	copy(b, fmt.Sprintf("block-%d|", i))
	for j := range b[16:] {
		b[16+j] = byte(i + j)
	}
	return b
}

func TestNaiveReadWriteRoundTrip(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		const n = 25
		for i := 0; i < n; i++ {
			if err := c.SeqWrite("f", payload(i)); err != nil {
				t.Errorf("SeqWrite %d: %v", i, err)
				return
			}
		}
		meta, err := c.Open("f")
		if err != nil || meta.Blocks != n {
			t.Errorf("Open = %+v, %v; want %d blocks", meta, err, n)
			return
		}
		for i := 0; i < n; i++ {
			data, eof, err := c.SeqRead("f")
			if err != nil || eof {
				t.Errorf("SeqRead %d: eof=%v err=%v", i, eof, err)
				return
			}
			if !bytes.Equal(data, payload(i)) {
				t.Errorf("block %d contents differ", i)
				return
			}
		}
		if _, eof, err := c.SeqRead("f"); !eof || err != nil {
			t.Errorf("read past end: eof=%v err=%v, want EOF", eof, err)
		}
	})
}

func TestRoundRobinPlacementOnDisk(t *testing.T) {
	// Verify the interleaving physically: block n must be local block
	// n/p on node (n mod p) — checked through direct LFS access.
	const P = 3
	withCluster(t, fastCfg(P), func(p sim.Proc, cl *Cluster, c *Client) {
		meta, err := c.Create("f")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		const n = 12
		for i := 0; i < n; i++ {
			c.SeqWrite("f", payload(i))
		}
		meta, err = c.Open("f") // refresh Blocks after the writes
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		lc := lfs.NewClient(p, cl.Net, 0, "raw")
		defer lc.C.Close()
		for i := 0; i < n; i++ {
			node := meta.Nodes[i%P]
			local := uint32(i / P)
			raw, _, err := lc.Read(node, meta.LFSFileID, local, -1)
			if err != nil {
				t.Errorf("raw read node %d local %d: %v", node, local, err)
				return
			}
			h, pl, err := DecodeBlock(raw)
			if err != nil {
				t.Errorf("decode block %d: %v", i, err)
				return
			}
			if h.GlobalBlock != int64(i) || int(h.P) != P {
				t.Errorf("block %d header = %+v", i, h)
			}
			if !bytes.Equal(pl, payload(i)) {
				t.Errorf("block %d payload differs", i)
			}
		}
		// Per-node sizes: 12 blocks over 3 nodes = 4 each.
		for i, node := range meta.Nodes {
			info, err := lc.Stat(node, meta.LFSFileID)
			if err != nil || info.Blocks != 4 {
				t.Errorf("node %d local blocks = %d, %v; want 4", node, info.Blocks, err)
			}
			if got := meta.LocalBlocks(i); got != 4 {
				t.Errorf("LocalBlocks(%d) = %d, want 4", i, got)
			}
		}
	})
}

func TestRandomAccess(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		c.Create("f")
		for i := 0; i < 10; i++ {
			c.SeqWrite("f", payload(i))
		}
		// Random reads in arbitrary order.
		for _, i := range []int64{7, 0, 9, 3, 3} {
			data, err := c.ReadAt("f", i)
			if err != nil || !bytes.Equal(data, payload(int(i))) {
				t.Errorf("ReadAt(%d): %v", i, err)
			}
		}
		// Random overwrite.
		if err := c.WriteAt("f", 4, []byte("overwritten")); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		data, _ := c.ReadAt("f", 4)
		if string(data) != "overwritten" {
			t.Errorf("ReadAt(4) after overwrite = %q", data)
		}
		// Append via WriteAt at size.
		if err := c.WriteAt("f", 10, []byte("tail")); err != nil {
			t.Errorf("WriteAt append: %v", err)
		}
		if meta, _ := c.Stat("f"); meta.Blocks != 11 {
			t.Errorf("Blocks = %d, want 11", meta.Blocks)
		}
		// Gap write rejected.
		if err := c.WriteAt("f", 99, []byte("x")); !errors.Is(err, ErrBadArg) {
			t.Errorf("gap WriteAt = %v, want ErrBadArg", err)
		}
		// Out-of-range read.
		if _, err := c.ReadAt("f", 42); !errors.Is(err, ErrEOF) {
			t.Errorf("ReadAt(42) = %v, want ErrEOF", err)
		}
	})
}

func TestDirectoryErrors(t *testing.T) {
	withCluster(t, fastCfg(2), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Open("ghost"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Open missing = %v, want ErrNotFound", err)
		}
		if _, err := c.Delete("ghost"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Delete missing = %v, want ErrNotFound", err)
		}
		c.Create("f")
		if _, err := c.Create("f"); !errors.Is(err, ErrExists) {
			t.Errorf("dup Create = %v, want ErrExists", err)
		}
		if _, err := c.Create(""); !errors.Is(err, ErrBadArg) {
			t.Errorf("empty name = %v, want ErrBadArg", err)
		}
	})
}

func TestDeleteFreesAcrossNodes(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		c.Create("f")
		const n = 21
		for i := 0; i < n; i++ {
			c.SeqWrite("f", payload(i))
		}
		freed, err := c.Delete("f")
		if err != nil || freed != n {
			t.Errorf("Delete = %d, %v; want %d", freed, err, n)
		}
		if _, err := c.Open("f"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Open after delete = %v, want ErrNotFound", err)
		}
		// Name reusable.
		if _, err := c.Create("f"); err != nil {
			t.Errorf("re-Create: %v", err)
		}
	})
}

func TestSeqCursorPerClient(t *testing.T) {
	withCluster(t, fastCfg(2), func(p sim.Proc, cl *Cluster, c *Client) {
		c.Create("f")
		for i := 0; i < 4; i++ {
			c.SeqWrite("f", payload(i))
		}
		c2 := cl.NewClient(p, 0, "second")
		defer c2.Close()
		// Both clients read independently.
		d1, _, _ := c.SeqRead("f")
		d2, _, _ := c2.SeqRead("f")
		if !bytes.Equal(d1, payload(0)) || !bytes.Equal(d2, payload(0)) {
			t.Error("clients do not have independent cursors")
		}
		c.SeqRead("f")
		d2b, _, _ := c2.SeqRead("f")
		if !bytes.Equal(d2b, payload(1)) {
			t.Error("second client's cursor was disturbed by the first")
		}
		// Re-open resets the cursor.
		c.Open("f")
		d1b, _, _ := c.SeqRead("f")
		if !bytes.Equal(d1b, payload(0)) {
			t.Error("Open did not reset the cursor")
		}
	})
}

func TestToolPathSizeRefresh(t *testing.T) {
	// A tool writes directly to the LFS instances; the server discovers
	// the new size on the next Open.
	withCluster(t, fastCfg(2), func(p sim.Proc, cl *Cluster, c *Client) {
		meta, err := c.Create("f")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		lc := lfs.NewClient(p, cl.Net, 0, "tool")
		defer lc.C.Close()
		// Write 6 blocks round-robin, tool-style.
		l, _ := meta.Layout()
		for i := int64(0); i < 6; i++ {
			node := meta.Nodes[l.NodeFor(i)]
			data := EncodeBlock(BlockHeader{FileID: meta.FileID, GlobalBlock: i, P: uint16(meta.Spec.P)}, payload(int(i)))
			if _, err := lc.Write(node, meta.LFSFileID, uint32(l.LocalFor(i)), data, -1); err != nil {
				t.Errorf("tool write %d: %v", i, err)
				return
			}
		}
		meta2, err := c.Open("f")
		if err != nil || meta2.Blocks != 6 {
			t.Errorf("Open after tool writes = %d blocks, %v; want 6", meta2.Blocks, err)
		}
		data, _, err := c.SeqRead("f")
		if err != nil || !bytes.Equal(data, payload(0)) {
			t.Errorf("SeqRead after tool writes: %v", err)
		}
	})
}

func TestGetInfo(t *testing.T) {
	withCluster(t, fastCfg(5), func(p sim.Proc, cl *Cluster, c *Client) {
		info, err := c.GetInfo()
		if err != nil {
			t.Errorf("GetInfo: %v", err)
			return
		}
		if info.P != 5 || len(info.Nodes) != 5 {
			t.Errorf("Info = %+v, want P=5", info)
		}
		if info.Server != cl.Servers[0].Addr() {
			t.Errorf("Info.Server = %v, want %v", info.Server, cl.Servers[0].Addr())
		}
	})
}

func TestChunkedAndHashedPlacement(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		// Chunked requires a size a priori.
		if _, err := c.CreateSpec("nochunk", distrib.Spec{Kind: distrib.Chunked}, false); !errors.Is(err, distrib.ErrNeedSize) {
			t.Errorf("chunked without size = %v, want ErrNeedSize", err)
		}
		for _, tc := range []struct {
			name string
			spec distrib.Spec
		}{
			{"chunked", distrib.Spec{Kind: distrib.Chunked, TotalBlocks: 16}},
			{"hashed", distrib.Spec{Kind: distrib.Hashed, Seed: 7}},
			{"offset", distrib.Spec{Kind: distrib.RoundRobin, Start: 2}},
		} {
			if _, err := c.CreateSpec(tc.name, tc.spec, false); err != nil {
				t.Errorf("Create %s: %v", tc.name, err)
				continue
			}
			for i := 0; i < 16; i++ {
				if err := c.SeqWrite(tc.name, payload(i)); err != nil {
					t.Errorf("%s write %d: %v", tc.name, i, err)
				}
			}
			c.Open(tc.name)
			for i := 0; i < 16; i++ {
				data, eof, err := c.SeqRead(tc.name)
				if err != nil || eof || !bytes.Equal(data, payload(i)) {
					t.Errorf("%s read %d: eof=%v err=%v", tc.name, i, eof, err)
					break
				}
			}
		}
	})
}

func TestTreeCreateEquivalent(t *testing.T) {
	withCluster(t, fastCfg(8), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.CreateSpec("t", distrib.Spec{}, true); err != nil {
			t.Errorf("tree create: %v", err)
			return
		}
		if err := c.SeqWrite("t", payload(1)); err != nil {
			t.Errorf("write after tree create: %v", err)
		}
		data, _, err := c.SeqRead("t")
		if err != nil || !bytes.Equal(data, payload(1)) {
			t.Errorf("read after tree create: %v", err)
		}
	})
}

func TestParallelOpenReadMatchesNaive(t *testing.T) {
	for _, tWorkers := range []int{2, 4, 7} { // below, equal to, above p
		tWorkers := tWorkers
		t.Run(fmt.Sprintf("t%d", tWorkers), func(t *testing.T) {
			withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
				c.Create("f")
				const n = 26
				for i := 0; i < n; i++ {
					c.SeqWrite("f", payload(i))
				}
				// Spawn workers that collect into a shared queue.
				rt := cl.Runtime()
				results := rt.NewQueue("results")
				workers := make([]msg.Addr, tWorkers)
				jws := make([]*JobWorker, tWorkers)
				for w := 0; w < tWorkers; w++ {
					jw := NewJobWorker(cl.Net, 0, fmt.Sprintf("jw%d", w))
					jws[w] = jw
					workers[w] = jw.Addr()
					p.Go(fmt.Sprintf("worker%d", w), func(wp sim.Proc) {
						for {
							d, ok := jw.Next(wp)
							if !ok {
								return
							}
							results.Send(d)
						}
					})
				}
				job, err := c.ParallelOpen("f", workers)
				if err != nil {
					t.Errorf("ParallelOpen: %v", err)
					return
				}
				got := make(map[int64][]byte)
				for {
					delivered, eof, err := job.Read()
					if err != nil {
						t.Errorf("job.Read: %v", err)
						return
					}
					for i := 0; i < tWorkers; i++ {
						v, ok := results.Recv(p)
						if !ok {
							t.Error("results closed")
							return
						}
						d := v.(WorkerData)
						if !d.EOF {
							got[d.Seq] = d.Data
						}
					}
					_ = delivered
					if eof {
						break
					}
				}
				if err := job.Close(); err != nil {
					t.Errorf("job.Close: %v", err)
				}
				for _, jw := range jws {
					jw.Close()
				}
				if len(got) != n {
					t.Errorf("received %d blocks, want %d", len(got), n)
				}
				for i := int64(0); i < n; i++ {
					if !bytes.Equal(got[i], payload(int(i))) {
						t.Errorf("block %d differs", i)
					}
				}
			})
		})
	}
}

func TestParallelOpenWrite(t *testing.T) {
	withCluster(t, fastCfg(3), func(p sim.Proc, cl *Cluster, c *Client) {
		c.Create("f")
		const tWorkers = 3
		const rounds = 4
		workers := make([]msg.Addr, tWorkers)
		for w := 0; w < tWorkers; w++ {
			w := w
			jw := NewJobWorker(cl.Net, 0, fmt.Sprintf("pw%d", w))
			workers[w] = jw.Addr()
			p.Go(fmt.Sprintf("pworker%d", w), func(wp sim.Proc) {
				for r := 0; r < rounds; r++ {
					// Worker w supplies blocks w, t+w, 2t+w... in round r.
					if err := jw.Supply(wp, payload(r*tWorkers+w), false); err != nil {
						t.Errorf("Supply: %v", err)
						return
					}
				}
				jw.Supply(wp, nil, true) // final round: EOF
			})
		}
		job, err := c.ParallelOpen("f", workers)
		if err != nil {
			t.Errorf("ParallelOpen: %v", err)
			return
		}
		total := 0
		for r := 0; r < rounds; r++ {
			n, err := job.Write()
			if err != nil {
				t.Errorf("job.Write round %d: %v", r, err)
				return
			}
			total += n
		}
		if n, err := job.Write(); err != nil || n != 0 {
			t.Errorf("final write round = %d, %v; want 0 blocks", n, err)
		}
		job.Close()
		if total != tWorkers*rounds {
			t.Errorf("wrote %d blocks, want %d", total, tWorkers*rounds)
		}
		// Verify contents and order via the naive view.
		c.Open("f")
		for i := 0; i < total; i++ {
			data, eof, err := c.SeqRead("f")
			if err != nil || eof || !bytes.Equal(data, payload(i)) {
				t.Errorf("block %d after parallel write: eof=%v err=%v", i, eof, err)
				return
			}
		}
	})
}

func TestParallelReadIsParallel(t *testing.T) {
	// With 15ms disks, a job read of p blocks should take roughly one
	// disk time, not p disk times.
	const P = 8
	withCluster(t, wrenCfg(P), func(p sim.Proc, cl *Cluster, c *Client) {
		c.Create("f")
		for i := 0; i < P; i++ {
			c.SeqWrite("f", payload(i))
		}
		workers := make([]msg.Addr, P)
		jws := make([]*JobWorker, P)
		for w := 0; w < P; w++ {
			jw := NewJobWorker(cl.Net, 0, fmt.Sprintf("tw%d", w))
			jws[w] = jw
			workers[w] = jw.Addr()
			p.Go(fmt.Sprintf("tworker%d", w), func(wp sim.Proc) {
				for {
					if _, ok := jw.Next(wp); !ok {
						return
					}
				}
			})
		}
		job, err := c.ParallelOpen("f", workers)
		if err != nil {
			t.Errorf("ParallelOpen: %v", err)
			return
		}
		// Force cold cache by reading fresh blocks (they were written
		// through the cache, so instead compare against serial naive
		// re-reads of the same blocks on one node).
		start := p.Now()
		if _, _, err := job.Read(); err != nil {
			t.Errorf("job.Read: %v", err)
			return
		}
		parallelTime := p.Now() - start
		job.Close()
		for _, jw := range jws {
			jw.Close()
		}
		// Serial lower bound for 8 blocks through one path would be >=
		// 8 * (per-message costs) even fully cached; with parallelism
		// the whole round should cost well under 8 * 15ms.
		if parallelTime > 8*15*time.Millisecond {
			t.Errorf("parallel read of %d blocks took %v, not parallel", P, parallelTime)
		}
	})
}

func TestFailedNodeSurfacesError(t *testing.T) {
	withCluster(t, fastCfg(3), func(p sim.Proc, cl *Cluster, c *Client) {
		c.SetTimeout(5 * time.Minute)
		cfgServerTimeout(cl) // shrink server->LFS timeout for the test
		c.Create("f")
		for i := 0; i < 9; i++ {
			c.SeqWrite("f", payload(i))
		}
		cl.FailNode(1)
		// Any block on the failed node is unreachable: interleaving is
		// "inherently intolerant of faults; a failure anywhere ruins
		// every file".
		_, err := c.ReadAt("f", 1) // block 1 lives on node index 1
		if !errors.Is(err, ErrLFSFailed) {
			t.Errorf("read from failed node = %v, want ErrLFSFailed", err)
		}
		// Blocks on healthy nodes still readable.
		if _, err := c.ReadAt("f", 0); err != nil {
			t.Errorf("read healthy block: %v", err)
		}
	})
}

// cfgServerTimeout shortens the server's LFS timeout so failure tests run
// quickly in virtual time.
func cfgServerTimeout(cl *Cluster) {
	cl.Servers[0].cfg.LFSTimeout = 2 * time.Second
}

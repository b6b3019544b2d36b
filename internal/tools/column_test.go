package tools

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/sim"
	"bridge/internal/workload"
)

// TestOneColumnPath holds the line column.go draws: no other non-test file of
// the package names a block read or write of the LFS protocol, by method or
// by request type, so a tool cannot grow a second, block-at-a-time loop.
func TestOneColumnPath(t *testing.T) {
	banned := map[string]bool{
		"Read": true, "Write": true, "ReadVec": true, "WriteVec": true,
		"ReadReq": true, "WriteReq": true, "ReadVecReq": true, "WriteVecReq": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "column.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && banned[sel.Sel.Name] {
				t.Errorf("%s: %s outside column.go", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

// diffRecords builds n payloads that every tool has something to say about:
// an 8-byte key from a small range (so keys repeat), then text with a needle.
func diffRecords(seed int64, n int) [][]byte {
	text := workload.Text(seed, n, 120, "XNEEDLEX")
	keys := workload.Records(seed, n, 16)
	out := make([][]byte, n)
	for i := range out {
		key := make([]byte, 8)
		key[7] = keys[i][7] % 11
		out[i] = append(key, text[i]...)
	}
	return out
}

// rawBlocks reads a file's blocks straight off its nodes, Bridge headers and
// all, in global order.
func rawBlocks(p sim.Proc, cl *core.Cluster, c *core.Client, name string) ([]core.BlockHeader, [][]byte, error) {
	meta, err := c.Open(name)
	if err != nil {
		return nil, nil, err
	}
	layout, err := meta.Layout()
	if err != nil {
		return nil, nil, err
	}
	lc := lfs.NewClient(p, cl.Net, 0, fmt.Sprintf("raw-%d", cl.Net.Seq()))
	defer lc.C.Close()
	hs := make([]core.BlockHeader, meta.Blocks)
	payloads := make([][]byte, meta.Blocks)
	for g := int64(0); g < meta.Blocks; g++ {
		raw, _, err := lc.Read(meta.Nodes[layout.NodeFor(g)], meta.LFSFileID, uint32(layout.LocalFor(g)), -1)
		if err != nil {
			return nil, nil, fmt.Errorf("%s block %d: %w", name, g, err)
		}
		if hs[g], payloads[g], err = core.DecodeBlock(raw); err != nil {
			return nil, nil, fmt.Errorf("%s block %d: %w", name, g, err)
		}
	}
	return hs, payloads, nil
}

func freeBlocks(cl *core.Cluster) []int {
	out := make([]int, len(cl.Nodes))
	for i, n := range cl.Nodes {
		out[i] = n.FS().FreeBlocks()
	}
	return out
}

func sum(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return s
}

// TestToolsDifferential runs every tool over files whose columns end before,
// on and after a track boundary inside the first run and a run boundary, and
// compares each with a few lines of in-memory reference.
func TestToolsDifferential(t *testing.T) {
	const P, inCore, track = 4, 8, disk.DefaultBlocksPerTrack
	for _, n := range []int{0, 1, P - 1, P, track*P - 1, track * P, track*P + 1, RunBlocks*P - 1, RunBlocks * P, RunBlocks*P + 1, 3*inCore*P + 5} {
		for seed := int64(1); seed <= 3; seed++ {
			n, seed := n, seed
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) {
				withCluster(t, fastCfg(P), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
					differential(t, p, cl, c, diffRecords(seed, n), inCore)
				})
			})
		}
	}
}

func differential(t *testing.T, p sim.Proc, cl *core.Cluster, c *core.Client, src [][]byte, inCore int) {
	n := len(src)
	if err := workload.Fill(p, c, "src", src); err != nil {
		t.Error(err)
		return
	}
	before := sum(freeBlocks(cl))

	// readBack returns the payloads of a tool's output after checking their
	// number and that every block's own header says where the block sits.
	readBack := func(name string) ([][]byte, bool) {
		hs, got, err := rawBlocks(p, cl, c, name)
		if err != nil || len(got) != n {
			t.Errorf("%s holds %d blocks, want %d (%v)", name, len(got), n, err)
			return nil, false
		}
		for g, h := range hs {
			if h.GlobalBlock != int64(g) || int(h.P) != len(cl.Nodes) {
				t.Errorf("%s block %d carries header {GlobalBlock %d, P %d}", name, g, h.GlobalBlock, h.P)
				return nil, false
			}
		}
		return got, true
	}
	same := func(name string, got, want [][]byte) {
		for g := range want {
			if !bytes.Equal(got[g], want[g]) {
				t.Errorf("%s block %d differs from the reference", name, g)
				return
			}
		}
	}

	if st, err := Copy(p, c, "src", "copy"); err != nil || st.Blocks != int64(n) {
		t.Errorf("Copy = %+v, %v", st, err)
		return
	}
	if got, ok := readBack("copy"); ok {
		same("copy", got, src)
	}

	if _, err := Filter(p, c, "src", "upper", ToUpper); err != nil {
		t.Errorf("Filter: %v", err)
		return
	}
	upper := make([][]byte, n)
	for i, b := range src {
		upper[i] = append([]byte(nil), b...)
		for j, ch := range b {
			if 'a' <= ch && ch <= 'z' {
				upper[i][j] = ch - 32
			}
		}
	}
	if got, ok := readBack("upper"); ok {
		same("upper", got, upper)
	}

	// The sort is stable inside a column but not across columns, so records
	// with equal keys may come out in either order: the reference fixes the
	// sequence of keys and the multiset of records.
	if st, err := Sort(p, c, "src", "sorted", SortOptions{InCore: inCore}); err != nil || st.Records != int64(n) {
		t.Errorf("Sort = %+v, %v", st, err)
		return
	}
	if got, ok := readBack("sorted"); ok {
		ref := append([][]byte(nil), src...)
		sort.SliceStable(ref, func(a, b int) bool { return bytes.Compare(ref[a][:8], ref[b][:8]) < 0 })
		for g := range got {
			if !bytes.Equal(got[g][:8], ref[g][:8]) {
				t.Errorf("sorted block %d has key %x, the reference %x", g, got[g][:8], ref[g][:8])
				break
			}
		}
		for _, s := range [][][]byte{got, ref} {
			s := s
			sort.Slice(s, func(a, b int) bool { return bytes.Compare(s[a], s[b]) < 0 })
		}
		same("sorted, as a multiset,", got, ref)
	}

	grep, err := Grep(p, c, "src", []byte("XNEEDLEX"))
	var wantMatches []Match
	var wantWC WCResult
	for g, b := range src {
		for off := 0; ; off++ {
			i := bytes.Index(b[off:], []byte("XNEEDLEX"))
			if i < 0 {
				break
			}
			off += i
			wantMatches = append(wantMatches, Match{GlobalBlock: int64(g), Offset: off})
		}
		wantWC.Blocks++
		wantWC.Bytes += int64(len(b))
		wantWC.Words += int64(len(bytes.Fields(b)))
		wantWC.Lines += int64(bytes.Count(b, []byte{'\n'}))
	}
	if err != nil || grep.Blocks != int64(n) || fmt.Sprint(grep.Matches) != fmt.Sprint(wantMatches) {
		t.Errorf("Grep = %d blocks, %v, %v; want %d blocks, %v", grep.Blocks, grep.Matches, err, n, wantMatches)
	}
	if wc, err := WC(p, c, "src"); err != nil || wc != wantWC {
		t.Errorf("WC = %+v, %v; want %+v", wc, err, wantWC)
	}

	// Three outputs of n blocks each are all that may stay allocated: the
	// sort's fast-freed scratch leaks nothing, and every volume checks clean.
	if used := before - sum(freeBlocks(cl)); used != 3*n {
		t.Errorf("the tools hold %d blocks, their outputs %d", used, 3*n)
	}
	for i := range cl.Nodes {
		if rep, err := c.Fsck(i); err != nil || !rep.OK() {
			t.Errorf("node %d after the tools: %+v, %v", i, rep, err)
		}
		noScratch(t, p, cl, i)
	}
}

// noScratch fails the test if node i holds a file with a scratch id.
func noScratch(t *testing.T, p sim.Proc, cl *core.Cluster, i int) {
	ids, err := cl.Nodes[i].FS().ListFiles(p)
	if err != nil {
		t.Errorf("node %d: %v", i, err)
	}
	for _, id := range ids {
		if id >= lfs.ScratchBase {
			t.Errorf("node %d still holds scratch file %d", i, id)
		}
	}
}

// rot flips a bit of one local block of a file on the medium, and has a scrub
// drop the node's cached clean copy so that reads verify against it.
func rot(t *testing.T, p sim.Proc, cl *core.Cluster, c *core.Client, nodeIdx int, file, local uint32) bool {
	lc := lfs.NewClient(p, cl.Net, 0, fmt.Sprintf("rot-%d", cl.Net.Seq()))
	defer lc.C.Close()
	node := cl.Nodes[nodeIdx]
	_, addr, err := lc.Read(node.ID, file, local, -1)
	if err != nil {
		t.Errorf("locating block %d: %v", local, err)
		return false
	}
	raw, err := node.Disk.ReadBlock(p, int(addr))
	if err == nil {
		raw[200] ^= 0x04
		err = node.Disk.WriteBlock(p, int(addr), raw)
	}
	if err != nil {
		t.Errorf("rotting block %d: %v", local, err)
		return false
	}
	if rep, err := c.Scrub(nodeIdx); err != nil || len(rep.Errors) != 1 {
		t.Errorf("Scrub = %+v, %v; want one rotted block", rep, err)
		return false
	}
	return true
}

// A source block that fails in the middle of a run fails the tool with the
// block's class and its number, and the column it was being copied to holds
// whole earlier runs only — never a run cut short at the bad block.
func TestRottedBlockInARunFailsTheToolAtThatBlock(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		if err := workload.Fill(p, c, "src", workload.Records(1, 4*3*RunBlocks, 64)); err != nil {
			t.Error(err)
			return
		}
		src, err := c.Open("src")
		if err != nil {
			t.Error(err)
			return
		}
		const bad = RunBlocks + 3 // the fourth block of node 1's second run
		if !rot(t, p, cl, c, 1, src.LFSFileID, bad) {
			return
		}
		want := fmt.Sprintf("block %d:", bad)
		_, err = Copy(p, c, "src", "dst")
		if !errors.Is(err, efs.ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("Copy over a rotted block = %v; want efs.ErrCorrupt naming %q", err, want)
		}
		for name, run := range map[string]func() error{
			"Grep": func() error { _, err := Grep(p, c, "src", []byte("x")); return err },
			"WC":   func() error { _, err := WC(p, c, "src"); return err },
			"Sort": func() error { _, err := Sort(p, c, "src", "sorted", SortOptions{InCore: 8}); return err },
		} {
			if err := run(); !errors.Is(err, efs.ErrCorrupt) || !strings.Contains(err.Error(), want) {
				t.Errorf("%s over a rotted block = %v; want efs.ErrCorrupt naming %q", name, err, want)
			}
		}
		dst, err := c.Open("dst")
		if err != nil {
			t.Error(err)
			return
		}
		lc := lfs.NewClient(p, cl.Net, 0, "dst-stat")
		defer lc.C.Close()
		for i, node := range dst.Nodes {
			wantBlocks := 3 * RunBlocks
			if i == 1 {
				wantBlocks = RunBlocks
			}
			if info, err := lc.Stat(node, dst.LFSFileID); err != nil || info.Blocks != wantBlocks {
				t.Errorf("dst column %d holds %d blocks (%v), want %d", i, info.Blocks, err, wantBlocks)
			}
		}
	})
}

// A reader that stops with its read-ahead in flight leaves nothing behind in
// a client that lives on: the reply is dropped when it arrives, not parked.
func TestColumnReaderStopLeavesNothingParked(t *testing.T) {
	withCluster(t, fastCfg(2), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		if err := workload.Fill(p, c, "src", workload.Records(1, 2*3*RunBlocks, 64)); err != nil {
			t.Error(err)
			return
		}
		meta, err := c.Open("src")
		if err != nil {
			t.Error(err)
			return
		}
		lc := lfs.NewClient(p, cl.Net, meta.Nodes[0], "stopper")
		defer lc.C.Close()
		rd := newColReader(lc, meta.Nodes[0], meta.LFSFileID, meta.LocalBlocks(0))
		if raw, num, err := rd.next(); err != nil || raw == nil || num != 0 {
			t.Errorf("next = %d bytes, block %d, %v", len(raw), num, err)
		}
		if rd.st.Windows() == 0 {
			t.Error("no run in flight behind the one being consumed")
		}
		rd.stop()
		// Let the abandoned reply arrive, and have the client look at its port.
		p.Sleep(time.Second)
		if _, err := lc.Stat(meta.Nodes[0], meta.LFSFileID); err != nil {
			t.Error(err)
		}
		if pending, discarded := lc.C.Parked(); pending != 0 || discarded != 0 {
			t.Errorf("after stop the client holds %d parked replies and %d discarded ids", pending, discarded)
		}
	})
}

var errBadSector = errors.New("bad sector")

// readsFailFrom is a disk fault: every read from the given instant on fails.
type readsFailFrom time.Duration

func (at readsFailFrom) BeforeOp(now time.Duration, _ string, op disk.Op, _ int) (time.Duration, error) {
	if op == disk.OpRead && now >= time.Duration(at) {
		return 0, errBadSector
	}
	return 0, nil
}

// writeRuns is a disk fault hook that injects nothing and remembers the
// latest access: the device consults it about every block of a write run, in
// ascending order, and once about a read, at the instant the access starts.
// The accesses of one LFS request follow each other back to back, and the
// node's CPU charge opens a gap before a request's first.
type writeRuns struct {
	latency    time.Duration // every access takes this long
	start      time.Duration
	last, size int
	opens      bool // the latest access is a write that began its request
}

func (w *writeRuns) BeforeOp(now time.Duration, _ string, op disk.Op, bn int) (time.Duration, error) {
	if op == disk.OpWrite && now == w.start && bn == w.last+1 {
		w.size++
	} else {
		w.opens = op == disk.OpWrite && now > w.start+w.latency
		w.start, w.size = now, 1
	}
	w.last = bn
	return 0, nil
}

// inService reports whether the first access of a request that writes a run
// of two or more blocks is in service at now.
func (w *writeRuns) inService(now time.Duration) bool {
	return w.opens && w.size >= 2 && now < w.start+w.latency
}

// A sort that fails gives back every scratch block and file it made, on every
// node that can still answer — whichever phase it fails in.
func TestFailedSortLeavesNoScratch(t *testing.T) {
	const P, perNode = 4, 40
	cfg := func(latency time.Duration) core.ClusterConfig {
		// A cache smaller than a column: the merge's reads reach the device.
		return core.ClusterConfig{P: P, Node: lfs.Config{DiskBlocks: 512, Timing: disk.FixedTiming{Latency: latency},
			EFS: efs.Options{CacheBlocks: 16}}}
	}
	// check is what must hold after the failure, on the nodes listed.
	check := func(t *testing.T, p sim.Proc, cl *core.Cluster, before []int, survivors ...int) {
		after := freeBlocks(cl)
		for _, i := range survivors {
			if after[i] != before[i] {
				t.Errorf("node %d has %d free blocks, %d before the sort", i, after[i], before[i])
			}
			noScratch(t, p, cl, i)
		}
	}

	// Node 2 runs out of space while it writes its column of the first merge
	// pass's output: the failure has a class, and the node itself survives.
	t.Run("disk fills in a merge pass", func(t *testing.T) {
		withCluster(t, cfg(0), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
			if err := workload.Fill(p, c, "src", workload.Records(3, P*perNode, 64)); err != nil {
				t.Error(err)
				return
			}
			lc := lfs.NewClient(p, cl.Net, 0, "ballast")
			defer lc.C.Close()
			const ballast = 900_000
			if err := lc.Create(cl.Nodes[2].ID, ballast); err != nil {
				t.Error(err)
				return
			}
			// Room for the local sort's output and half a pass more.
			for b := uint32(0); cl.Nodes[2].FS().FreeBlocks() > perNode+perNode/2; b++ {
				if _, err := lc.Write(cl.Nodes[2].ID, ballast, b, []byte("ballast"), -1); err != nil {
					t.Error(err)
					return
				}
			}
			before := freeBlocks(cl)
			_, err := Sort(p, c, "src", "sorted", SortOptions{InCore: 2 * perNode})
			if !errors.Is(err, efs.ErrNoSpace) || !strings.Contains(err.Error(), "merge pass 1") {
				t.Errorf("Sort = %v; want efs.ErrNoSpace from merge pass 1", err)
			}
			check(t, p, cl, before, 0, 1, 2, 3)
		})
	})

	// Node 2's disk fails partway through the first merge pass: a dry run says
	// when that is. Either way the sort fails with what the node said, promptly
	// — not by waiting out workers that can never finish — and the other three
	// nodes are as they were.
	midMerge := func(t *testing.T, eighths time.Duration, arm func(cl *core.Cluster, at time.Duration), want string) {
		var at time.Duration
		for _, dry := range []bool{true, false} {
			dry := dry
			withCluster(t, cfg(15*time.Millisecond), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
				if err := workload.Fill(p, c, "src", workload.Records(3, P*perNode, 64)); err != nil {
					t.Error(err)
					return
				}
				before, start := freeBlocks(cl), p.Now()
				if !dry {
					arm(cl, start+at)
				}
				st, err := Sort(p, c, "src", "sorted", SortOptions{InCore: 16})
				if dry {
					if err != nil {
						t.Errorf("Sort: %v", err)
					}
					at = st.LocalSort + st.PassTimes[0]*eighths/8
					return
				}
				if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "merge pass 1") {
					t.Errorf("Sort = %v; want node 2's %q from merge pass 1", err, want)
				}
				if took := p.Now() - start; took > time.Hour {
					t.Errorf("the failed sort took %v: it waited out a worker", took)
				}
				check(t, p, cl, before, 0, 1, 3)
			})
		}
	}
	// The device dies under the first access of a writer's run, the first
	// such access in service from midway through the pass on. The request
	// has another access to go — a run of RunBlocks spans two tracks, and a
	// later run links the old tail — so the access in service lands, the
	// next one fails, and the node answers with the device's error; it then
	// answers nothing more, so the discards that follow give up on it. (Under
	// a run's last access the request would land whole: the first run of a
	// new file links no tail, and the writer's next run would meet a silent
	// node and time out.)
	t.Run("disk dies in a merge pass", func(t *testing.T) {
		midMerge(t, 4, func(cl *core.Cluster, at time.Duration) {
			runs := &writeRuns{latency: 15 * time.Millisecond}
			cl.Nodes[2].Disk.SetFault(runs, "victim")
			cl.Runtime().Go("kill-disk", func(kp sim.Proc) {
				kp.Sleep(at - kp.Now())
				for !runs.inService(kp.Now()) {
					kp.Sleep(time.Millisecond)
				}
				cl.Nodes[2].Disk.Fail()
			})
		}, disk.ErrFailed.Error())
	})
	// Reads start to fail under a reader, which holds the token or is about
	// to: the rest of its group must be told, or it waits for ever.
	t.Run("reads fail in a merge pass", func(t *testing.T) {
		midMerge(t, 1, func(cl *core.Cluster, at time.Duration) {
			cl.Nodes[2].Disk.SetFault(readsFailFrom(at), "victim")
		}, errBadSector.Error())
	})

	// A worker of the local sort fails between run formation and the last
	// merge: its run files go with it.
	t.Run("rotted run in the local sort", func(t *testing.T) {
		withCluster(t, cfg(0), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
			if err := workload.Fill(p, c, "src", workload.Records(3, P*perNode, 64)); err != nil {
				t.Error(err)
				return
			}
			src, err := c.Open("src")
			if err != nil {
				t.Error(err)
				return
			}
			before := freeBlocks(cl)
			// The third of node 1's five runs cannot be read.
			if !rot(t, p, cl, c, 1, src.LFSFileID, 2*8+1) {
				return
			}
			_, err = Sort(p, c, "src", "sorted", SortOptions{InCore: 8})
			if !errors.Is(err, efs.ErrCorrupt) || !strings.Contains(err.Error(), "local sort") {
				t.Errorf("Sort = %v; want efs.ErrCorrupt from the local sort phase", err)
			}
			check(t, p, cl, before, 0, 1, 2, 3)
		})
	})
}

// slowReads is a disk fault that is no fault: every read takes that much longer.
type slowReads time.Duration

func (d slowReads) BeforeOp(_ time.Duration, _ string, op disk.Op, _ int) (time.Duration, error) {
	if op == disk.OpRead {
		return time.Duration(d), nil
	}
	return 0, nil
}

// A tool call slower than the bound fails with msg.ErrTimeout, exactly like a
// call to a node that will never answer, and leaves nothing parked in the
// tool's client.
func TestToolCallPastTheBoundTimesOut(t *testing.T) {
	const P, perNode = 2, 32
	// A cache smaller than a column, so the copy's reads reach the device.
	cfg := core.ClusterConfig{P: P, Node: lfs.Config{DiskBlocks: 512, Timing: disk.FixedTiming{},
		EFS: efs.Options{CacheBlocks: 16}}}
	withCluster(t, cfg, func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		if err := workload.Fill(p, c, "src", workload.Records(5, P*perNode, 64)); err != nil {
			t.Error(err)
			return
		}
		for _, n := range cl.Nodes {
			n.Disk.SetFault(slowReads(lfs.DefaultTimeout+time.Second), "slow")
		}
		start := p.Now()
		_, err := Copy(p, c, "src", "dst")
		if took := p.Now() - start; !errors.Is(err, msg.ErrTimeout) || took > 2*lfs.DefaultTimeout {
			t.Errorf("Copy over reads slower than the bound = %v after %v; want msg.ErrTimeout after one bound", err, took)
		}
		if pending, discarded := c.Msg().Parked(); pending != 0 || discarded != 0 {
			t.Errorf("the tool's client holds %d parked replies and %d discarded ids", pending, discarded)
		}
	})
}

// A tool cannot starve a naive client of its node: while a Copy runs on 15 ms
// disks, a client reading a block of another file from one of the copying
// nodes waits in that LFS's queue at most for the two requests the worker
// keeps there at once, its reader's next run and its writer's run. A run of
// RunBlocks touches at most three tracks; the read misses them all only on
// its file's first run, and the write adds one access for the old tail's
// link. Each request also holds the LFS for its CPU: receive, serve, answer.
func TestToolRunBoundsNaiveQueueWait(t *testing.T) {
	const P, perNode, latency = 4, 640, 15 * time.Millisecond
	net := msg.DefaultConfig()
	cpu := net.RecvCPU + lfs.DefaultOpCPU + net.SendCPU
	hold := (3+4)*latency + 2*cpu
	withCluster(t, wrenCfg(P), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		if err := workload.Fill(p, c, "other", workload.Records(2, P, 64)); err != nil {
			t.Error(err)
			return
		}
		// Columns longer than the cache: every run reaches the disk.
		if err := workload.Fill(p, c, "src", workload.Records(1, P*perNode, 64)); err != nil {
			t.Error(err)
			return
		}
		rec := obs.NewRecorder(obs.Config{})
		cl.Net.SetRecorder(rec)
		copying := true
		exited := cl.Runtime().NewQueue("naive.exited")
		cl.Runtime().Go("naive", func(np sim.Proc) {
			defer exited.Send(nil)
			nc := cl.NewClient(np, 0, "naive")
			defer nc.Close()
			// Block 1 lives on node 1. Reads 7 ms apart, a period prime to
			// the 15 ms accesses, land in every phase of a run.
			for np.Sleep(100 * time.Millisecond); copying; np.Sleep(7 * time.Millisecond) {
				if _, err := nc.ReadAt("other", 1); err != nil {
					t.Errorf("naive read: %v", err)
					return
				}
			}
		})
		_, err := Copy(p, c, "src", "dst")
		copying = false
		exited.Recv(p)
		if err != nil {
			t.Errorf("Copy: %v", err)
			return
		}
		naive := map[obs.TraceID]bool{}
		spans := rec.Spans()
		for _, sp := range spans {
			if sp.Kind == "client.readat" {
				naive[sp.Trace] = true
			}
		}
		reads, waited, longest := 0, 0, time.Duration(0)
		for _, sp := range spans {
			if !naive[sp.Trace] || !strings.HasPrefix(sp.Kind, "lfs.") {
				continue
			}
			reads++
			if sp.QueueWait > latency {
				waited++
			}
			longest = max(longest, sp.QueueWait)
		}
		if reads < 10 || waited == 0 {
			t.Errorf("%d naive reads reached the LFS, %d waited behind an access: the copy was not contended", reads, waited)
			return
		}
		if longest > hold {
			t.Errorf("a naive read waited %v in the LFS queue, more than a read run and a write run hold it (%v)", longest, hold)
		}
		t.Logf("%d naive reads, %d waited longer than an access, the longest %v (bound %v)", reads, waited, longest, hold)
	})
}

package tools

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/lfs"
	"bridge/internal/sim"
	"bridge/internal/workload"
)

func fastCfg(p int) core.ClusterConfig {
	return core.ClusterConfig{
		P:    p,
		Node: lfs.Config{DiskBlocks: 8192, Timing: disk.FixedTiming{}},
	}
}

func wrenCfg(p int) core.ClusterConfig {
	return core.ClusterConfig{
		P:    p,
		Node: lfs.Config{DiskBlocks: 8192, Timing: disk.FixedTiming{Latency: 15 * time.Millisecond}},
	}
}

func withCluster(t *testing.T, cfg core.ClusterConfig, fn func(p sim.Proc, cl *core.Cluster, c *core.Client)) {
	t.Helper()
	rt := sim.NewVirtual()
	cl, err := core.StartCluster(rt, cfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	rt.Go("tool-test", func(p sim.Proc) {
		defer cl.Stop()
		c := cl.NewClient(p, 0, "tool-test-cli")
		defer c.Close()
		fn(p, cl, c)
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCopyToolRoundTrip(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		want := workload.Records(1, 37, 64)
		if err := workload.Fill(p, c, "src", want); err != nil {
			t.Error(err)
			return
		}
		st, err := Copy(p, c, "src", "dst")
		if err != nil {
			t.Errorf("Copy: %v", err)
			return
		}
		if st.Blocks != 37 {
			t.Errorf("copied %d blocks, want 37", st.Blocks)
		}
		got, err := workload.ReadAll(p, c, "dst")
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != len(want) {
			t.Errorf("dst has %d blocks, want %d", len(got), len(want))
			return
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("block %d differs after copy", i)
				return
			}
		}
	})
}

func TestCopyToolEmptyFile(t *testing.T) {
	withCluster(t, fastCfg(3), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		if err := workload.Fill(p, c, "src", nil); err != nil {
			t.Error(err)
			return
		}
		st, err := Copy(p, c, "src", "dst")
		if err != nil || st.Blocks != 0 {
			t.Errorf("Copy empty = %+v, %v", st, err)
		}
	})
}

func TestCopyDestinationExists(t *testing.T) {
	withCluster(t, fastCfg(2), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		workload.Fill(p, c, "src", workload.Records(2, 5, 32))
		workload.Fill(p, c, "dst", nil)
		if _, err := Copy(p, c, "src", "dst"); err == nil {
			t.Error("Copy onto existing destination succeeded")
		}
	})
}

func TestFilterXORTwiceIsIdentity(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		want := workload.Records(3, 20, 96)
		workload.Fill(p, c, "src", want)
		key := []byte{0x5a, 0xc3, 0x99}
		if _, err := Filter(p, c, "src", "enc", XORCipher(key)); err != nil {
			t.Errorf("encrypt: %v", err)
			return
		}
		enc, _ := workload.ReadAll(p, c, "enc")
		if bytes.Equal(enc[0], want[0]) {
			t.Error("encryption did not change the data")
		}
		if _, err := Filter(p, c, "enc", "dec", XORCipher(key)); err != nil {
			t.Errorf("decrypt: %v", err)
			return
		}
		got, _ := workload.ReadAll(p, c, "dec")
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("block %d differs after encrypt+decrypt", i)
				return
			}
		}
	})
}

func TestFilterToUpperAndRot13(t *testing.T) {
	withCluster(t, fastCfg(2), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		src := [][]byte{[]byte("hello Bridge"), []byte("parallel File")}
		workload.Fill(p, c, "src", src)
		if _, err := Filter(p, c, "src", "up", ToUpper); err != nil {
			t.Errorf("ToUpper: %v", err)
			return
		}
		up, _ := workload.ReadAll(p, c, "up")
		if string(up[0]) != "HELLO BRIDGE" || string(up[1]) != "PARALLEL FILE" {
			t.Errorf("ToUpper = %q, %q", up[0], up[1])
		}
		if _, err := Filter(p, c, "src", "r13", Rot13); err != nil {
			t.Errorf("Rot13: %v", err)
			return
		}
		if _, err := Filter(p, c, "r13", "r26", Rot13); err != nil {
			t.Errorf("Rot13 again: %v", err)
			return
		}
		r26, _ := workload.ReadAll(p, c, "r26")
		for i := range src {
			if !bytes.Equal(r26[i], src[i]) {
				t.Errorf("rot13 twice differs at block %d", i)
			}
		}
	})
}

func TestGrepFindsPlantedNeedles(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		const needle = "XNEEDLEX"
		blocks := workload.Text(5, 29, 300, needle)
		workload.Fill(p, c, "txt", blocks)
		res, err := Grep(p, c, "txt", []byte(needle))
		if err != nil {
			t.Errorf("Grep: %v", err)
			return
		}
		// Reference scan.
		var want []Match
		for i, b := range blocks {
			off := 0
			for {
				j := bytes.Index(b[off:], []byte(needle))
				if j < 0 {
					break
				}
				want = append(want, Match{GlobalBlock: int64(i), Offset: off + j})
				off += j + 1
			}
		}
		if len(res.Matches) != len(want) {
			t.Errorf("found %d matches, want %d", len(res.Matches), len(want))
			return
		}
		for i := range want {
			if res.Matches[i] != want[i] {
				t.Errorf("match %d = %+v, want %+v", i, res.Matches[i], want[i])
			}
		}
		if res.Blocks != int64(len(blocks)) {
			t.Errorf("scanned %d blocks, want %d", res.Blocks, len(blocks))
		}
	})
}

func TestWCMatchesReference(t *testing.T) {
	withCluster(t, fastCfg(3), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		blocks := workload.Text(6, 17, 200, "")
		workload.Fill(p, c, "txt", blocks)
		res, err := WC(p, c, "txt")
		if err != nil {
			t.Errorf("WC: %v", err)
			return
		}
		var wantBytes, wantWords, wantLines int64
		for _, b := range blocks {
			wantBytes += int64(len(b))
			wantWords += int64(len(bytes.Fields(b)))
			wantLines += int64(bytes.Count(b, []byte{'\n'}))
		}
		if res.Bytes != wantBytes || res.Words != wantWords || res.Lines != wantLines {
			t.Errorf("WC = %+v, want bytes %d words %d lines %d", res, wantBytes, wantWords, wantLines)
		}
	})
}

func TestToolCopyBeatsNaiveCopy(t *testing.T) {
	// Section 5.1: a tool copies in O(n/p) while the naive path is O(n)
	// through the server.
	const n = 64
	withCluster(t, wrenCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		recs := workload.Records(7, n, 64)
		if err := workload.Fill(p, c, "src", recs); err != nil {
			t.Error(err)
			return
		}
		start := p.Now()
		if _, err := Copy(p, c, "src", "toolcopy"); err != nil {
			t.Errorf("tool copy: %v", err)
			return
		}
		toolTime := p.Now() - start

		start = p.Now()
		c.Open("src")
		c.Create("naivecopy")
		for {
			data, eof, err := c.SeqRead("src")
			if err != nil {
				t.Errorf("naive read: %v", err)
				return
			}
			if eof {
				break
			}
			if err := c.SeqWrite("naivecopy", data); err != nil {
				t.Errorf("naive write: %v", err)
				return
			}
		}
		naiveTime := p.Now() - start
		if toolTime*2 >= naiveTime {
			t.Errorf("tool copy %v vs naive copy %v; want at least 2x speedup at p=4", toolTime, naiveTime)
		}
	})
}

// checkSorted verifies dst is a sorted permutation of the source records.
func checkSorted(t *testing.T, p sim.Proc, c *core.Client, dst string, want [][]byte, keyBytes int) {
	t.Helper()
	got, err := workload.ReadAll(p, c, dst)
	if err != nil {
		t.Errorf("reading %s: %v", dst, err)
		return
	}
	if len(got) != len(want) {
		t.Errorf("%s has %d records, want %d", dst, len(got), len(want))
		return
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		ka, kb := a[:min(keyBytes, len(a))], b[:min(keyBytes, len(b))]
		if bytes.Compare(ka, kb) > 0 {
			t.Errorf("%s not sorted at record %d", dst, i)
			return
		}
	}
	// Multiset equality via counting map.
	count := make(map[string]int, len(want))
	for _, w := range want {
		count[string(w)]++
	}
	for _, g := range got {
		count[string(g)]--
	}
	for k, v := range count {
		if v != 0 {
			t.Errorf("%s is not a permutation of the source (delta %d for %.16q)", dst, v, k)
			return
		}
	}
}

func TestSortToolAcrossWidths(t *testing.T) {
	for _, P := range []int{1, 2, 4, 8} {
		P := P
		t.Run(fmt.Sprintf("p%d", P), func(t *testing.T) {
			withCluster(t, fastCfg(P), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
				const n = 53 // not a multiple of anything interesting
				recs := workload.Records(int64(10+P), n, 64)
				if err := workload.Fill(p, c, "src", recs); err != nil {
					t.Error(err)
					return
				}
				st, err := Sort(p, c, "src", "sorted", SortOptions{InCore: 8})
				if err != nil {
					t.Errorf("Sort: %v", err)
					return
				}
				if st.Records != n {
					t.Errorf("sorted %d records, want %d", st.Records, n)
				}
				checkSorted(t, p, c, "sorted", recs, 8)
			})
		})
	}
}

func TestSortEmptyFile(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		workload.Fill(p, c, "src", nil)
		st, err := Sort(p, c, "src", "sorted", SortOptions{})
		if err != nil {
			t.Errorf("Sort empty: %v", err)
			return
		}
		if st.Records != 0 {
			t.Errorf("Records = %d, want 0", st.Records)
		}
		meta, err := c.Open("sorted")
		if err != nil || meta.Blocks != 0 {
			t.Errorf("sorted empty file = %d blocks, %v", meta.Blocks, err)
		}
	})
}

func TestSortAllInCore(t *testing.T) {
	// n/p fits the in-core buffer: no local run merging at all.
	withCluster(t, fastCfg(2), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		recs := workload.Records(11, 10, 64)
		workload.Fill(p, c, "src", recs)
		if _, err := Sort(p, c, "src", "sorted", SortOptions{InCore: 512}); err != nil {
			t.Errorf("Sort: %v", err)
			return
		}
		checkSorted(t, p, c, "sorted", recs, 8)
	})
}

func TestSortWithDuplicateKeys(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		recs := workload.Records(12, 40, 64)
		// Force many duplicate keys.
		for i := range recs {
			copy(recs[i][:8], []byte{0, 0, 0, 0, 0, 0, 0, byte(i % 3)})
		}
		workload.Fill(p, c, "src", recs)
		if _, err := Sort(p, c, "src", "sorted", SortOptions{InCore: 8}); err != nil {
			t.Errorf("Sort: %v", err)
			return
		}
		checkSorted(t, p, c, "sorted", recs, 8)
	})
}

func TestSortAlreadySortedAndReversed(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		n := 32
		asc := make([][]byte, n)
		desc := make([][]byte, n)
		for i := 0; i < n; i++ {
			a := make([]byte, 32)
			a[7] = byte(i)
			asc[i] = a
			d := make([]byte, 32)
			d[7] = byte(n - i)
			desc[i] = d
		}
		workload.Fill(p, c, "asc", asc)
		workload.Fill(p, c, "desc", desc)
		if _, err := Sort(p, c, "asc", "asc.s", SortOptions{InCore: 4}); err != nil {
			t.Errorf("Sort asc: %v", err)
			return
		}
		checkSorted(t, p, c, "asc.s", asc, 8)
		if _, err := Sort(p, c, "desc", "desc.s", SortOptions{InCore: 4}); err != nil {
			t.Errorf("Sort desc: %v", err)
			return
		}
		checkSorted(t, p, c, "desc.s", desc, 8)
	})
}

func TestSortRejectsNonPowerOfTwo(t *testing.T) {
	withCluster(t, fastCfg(3), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		workload.Fill(p, c, "src", workload.Records(1, 6, 32))
		if _, err := Sort(p, c, "src", "sorted", SortOptions{}); err == nil {
			t.Error("Sort with p=3 succeeded, want power-of-two error")
		}
	})
}

func TestSortScratchFilesCleanedUp(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		recs := workload.Records(13, 48, 64)
		workload.Fill(p, c, "src", recs)
		// Record free space before (after source written).
		free := func() int {
			total := 0
			for _, n := range cl.Nodes {
				total += n.FS().FreeBlocks()
			}
			return total
		}
		before := free()
		if _, err := Sort(p, c, "src", "sorted", SortOptions{InCore: 8}); err != nil {
			t.Errorf("Sort: %v", err)
			return
		}
		after := free()
		// Only the destination's 48 blocks should remain allocated.
		if before-after != 48 {
			t.Errorf("sort leaked %d blocks beyond the destination", before-after-48)
		}
	})
}

func TestSortTimingPhases(t *testing.T) {
	withCluster(t, wrenCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		recs := workload.Records(14, 64, 64)
		workload.Fill(p, c, "src", recs)
		st, err := Sort(p, c, "src", "sorted", SortOptions{InCore: 8})
		if err != nil {
			t.Errorf("Sort: %v", err)
			return
		}
		if st.LocalSort <= 0 || st.Merge <= 0 {
			t.Errorf("phase times not recorded: %+v", st)
		}
		if len(st.PassTimes) != 2 { // log2(4)
			t.Errorf("PassTimes = %d entries, want 2", len(st.PassTimes))
		}
		checkSorted(t, p, c, "sorted", recs, 8)
	})
}

func TestLocalMergeJoinsShortestRuns(t *testing.T) {
	// 35 records in core 8 at a time: runs of 8, 8, 8, 8 and 3. Joining the
	// two shortest each time writes runs of 11, 16, 19 and the 35-block
	// column; pairing in order, the odd run out waiting a round, would write
	// 16, 16, 32 and 35.
	const n, inCore = 35, 8
	runs := []int{8, 8, 8, 8, 3}
	// A file appended from empty in runs writes each block once, and the
	// old tail once more per run after the first, for its link. (A run's
	// new blocks on one track share one device access, so accesses would
	// count the layout, not the merge order.)
	appendWrites := func(blocks int) int64 { return int64(blocks + (blocks+runBlocks-1)/runBlocks - 1) }
	var want int64
	for _, r := range runs {
		want += appendWrites(r)
	}
	for len(runs) > 1 {
		slices.Sort(runs)
		m := runs[0] + runs[1]
		want += appendWrites(m)
		runs = append(runs[2:], m)
	}
	withCluster(t, fastCfg(1), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		if err := workload.Fill(p, c, "src", workload.Records(15, n, 64)); err != nil {
			t.Error(err)
			return
		}
		meta, err := openMeta(c, "src")
		if err != nil {
			t.Error(err)
			return
		}
		written := &blockWrites{}
		cl.Nodes[0].Disk.SetFault(written, "n0")
		_, err = RunOnNodes(p, cl.Net, meta.Nodes, "sortlocal", func(ctx *WorkerCtx) (any, error) {
			opts := SortOptions{InCore: inCore}
			opts.applyDefaults()
			return localSortWorker(ctx, meta, lfs.ScratchBase+1, true, cl.Net.Seq(), opts)
		})
		if err != nil {
			t.Errorf("local sort: %v", err)
			return
		}
		if got := written.n; got != want {
			t.Errorf("local sort of runs 8/8/8/8/3 wrote %d blocks, want %d (shortest runs first)", got, want)
		}
	})
}

// blockWrites is a disk fault hook that injects nothing and counts the
// blocks written: the device consults it about every block a write moves.
type blockWrites struct{ n int64 }

func (w *blockWrites) BeforeOp(_ time.Duration, _ string, op disk.Op, _ int) (time.Duration, error) {
	if op == disk.OpWrite {
		w.n++
	}
	return 0, nil
}

package tools

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/israce"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// These tests drive the Figure 4 token-ring merge directly, without the
// surrounding sort tool: synthetic sorted columns go in, and the merged
// interleaved output must be the sorted union.

const mergeTestKeyBytes = 8

// record builds a one-block record with the given uint64 key.
func record(key uint64, tag int) []byte {
	payload := make([]byte, 32)
	binary.BigEndian.PutUint64(payload, key)
	binary.BigEndian.PutUint32(payload[8:], uint32(tag))
	return core.EncodeBlock(core.BlockHeader{GlobalBlock: int64(tag)}, payload)
}

// writeColumns distributes records round-robin across the given nodes as
// local file fileID.
func writeColumns(proc sim.Proc, network *msg.Network, nodes []msg.NodeID, fileID uint32, recs [][]byte) error {
	lc := lfs.NewClient(proc, network, 0, fmt.Sprintf("mt-write-%d", network.Seq()))
	defer lc.C.Close()
	for _, n := range nodes {
		if err := lc.Create(n, fileID); err != nil {
			return err
		}
	}
	counts := make([]uint32, len(nodes))
	for i, rec := range recs {
		n := i % len(nodes)
		if _, err := lc.Write(nodes[n], fileID, counts[n], rec, -1); err != nil {
			return err
		}
		counts[n]++
	}
	return nil
}

// readColumns reassembles an interleaved file from its local columns.
func readColumns(proc sim.Proc, network *msg.Network, nodes []msg.NodeID, fileID uint32) ([][]byte, error) {
	lc := lfs.NewClient(proc, network, 0, fmt.Sprintf("mt-read-%d", network.Seq()))
	defer lc.C.Close()
	sizes := make([]int, len(nodes))
	total := 0
	for i, n := range nodes {
		info, err := lc.Stat(n, fileID)
		if err != nil {
			return nil, err
		}
		sizes[i] = info.Blocks
		total += info.Blocks
	}
	out := make([][]byte, total)
	for s := 0; s < total; s++ {
		n := s % len(nodes)
		local := uint32(s / len(nodes))
		if int(local) >= sizes[n] {
			return nil, fmt.Errorf("output not dense: seq %d missing on node %d", s, nodes[n])
		}
		raw, _, err := lc.Read(nodes[n], fileID, local, -1)
		if err != nil {
			return nil, err
		}
		out[s] = raw
	}
	return out, nil
}

// runOneMerge executes a single merge group over fresh LFS columns.
func runOneMerge(t *testing.T, tWidth int, keysA, keysB []uint64) [][]byte {
	t.Helper()
	merged, _, _ := runTimedMerge(t, tWidth, keysA, keysB)
	return merged
}

// runTimedMerge is runOneMerge that also returns how long the merge took,
// from its Start token until every reader and writer is done, and how many
// heap objects the host allocated over that span.
func runTimedMerge(t *testing.T, tWidth int, keysA, keysB []uint64) ([][]byte, time.Duration, uint64) {
	t.Helper()
	rt := sim.NewVirtual()
	cl, err := core.StartCluster(rt, core.ClusterConfig{
		P:    tWidth,
		Node: lfs.Config{DiskBlocks: 4096, Timing: disk.FixedTiming{}},
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	var merged [][]byte
	var mergeErr error
	var took time.Duration
	var allocs uint64
	rt.Go("merge-driver", func(proc sim.Proc) {
		defer cl.Stop()
		nodes := cl.NodeIDs()
		const inID, outID = lfs.ScratchBase + 1, lfs.ScratchBase + 2
		var recsA, recsB [][]byte
		for i, k := range keysA {
			recsA = append(recsA, record(k, i))
		}
		for i, k := range keysB {
			recsB = append(recsB, record(k, 1000+i))
		}
		if err := writeColumns(proc, cl.Net, nodes[:tWidth/2], inID, recsA); err != nil {
			mergeErr = err
			return
		}
		if err := writeColumns(proc, cl.Net, nodes[tWidth/2:], inID, recsB); err != nil {
			mergeErr = err
			return
		}
		seq := cl.Net.Seq()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		g := newMergeGroup(cl.Net, seq, 1, 0, nodes, inID, outID, mergeTestKeyBytes)
		start := proc.Now()
		g.start(proc, cl.Net)
		join := rt.NewQueue("merge-join")
		for i := 0; i < tWidth; i++ {
			i := i
			node := nodes[i]
			proc.Go(fmt.Sprintf("mr%d", i), func(p sim.Proc) {
				join.Send(g.runReader(p, cl.Net, node, i))
			})
			proc.Go(fmt.Sprintf("mw%d", i), func(p sim.Proc) {
				join.Send(g.runWriter(p, cl.Net, node, i))
			})
		}
		for i := 0; i < 2*tWidth; i++ {
			v, ok := join.Recv(proc)
			if !ok {
				mergeErr = fmt.Errorf("join queue closed")
				return
			}
			if err, isErr := v.(error); isErr && err != nil && mergeErr == nil {
				mergeErr = err
			}
		}
		took = proc.Now() - start
		runtime.ReadMemStats(&ms)
		allocs = ms.Mallocs - mallocs
		g.close()
		if mergeErr != nil {
			return
		}
		merged, mergeErr = readColumns(proc, cl.Net, nodes, outID)
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if mergeErr != nil {
		t.Fatalf("merge: %v", mergeErr)
	}
	return merged, took, allocs
}

// verifyMerge checks sortedness and multiset preservation.
func verifyMerge(t *testing.T, merged [][]byte, keysA, keysB []uint64) {
	t.Helper()
	if len(merged) != len(keysA)+len(keysB) {
		t.Fatalf("merged %d records, want %d", len(merged), len(keysA)+len(keysB))
	}
	want := append(append([]uint64(nil), keysA...), keysB...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var prev []byte
	for i, raw := range merged {
		key, err := keyOf(raw, mergeTestKeyBytes)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if prev != nil && bytes.Compare(prev, key) > 0 {
			t.Fatalf("output not sorted at record %d", i)
		}
		prev = key
		if got := binary.BigEndian.Uint64(key); got != want[i] {
			t.Fatalf("record %d key = %d, want %d", i, got, want[i])
		}
	}
}

func TestMergeBalanced(t *testing.T) {
	keysA := []uint64{1, 4, 7, 10, 13, 16}
	keysB := []uint64{2, 3, 9, 11, 20, 21}
	verifyMerge(t, runOneMerge(t, 4, keysA, keysB), keysA, keysB)
}

func TestMergeT2SelfRing(t *testing.T) {
	// t=2: each input has a single reader whose ring successor is
	// itself.
	keysA := []uint64{5, 6, 7}
	keysB := []uint64{1, 2, 3, 4, 8, 9}
	verifyMerge(t, runOneMerge(t, 2, keysA, keysB), keysA, keysB)
}

func TestMergeOneInputEmpty(t *testing.T) {
	keysB := []uint64{3, 1, 9}
	sort.Slice(keysB, func(i, j int) bool { return keysB[i] < keysB[j] })
	verifyMerge(t, runOneMerge(t, 4, nil, keysB), nil, keysB)
	verifyMerge(t, runOneMerge(t, 4, keysB, nil), keysB, nil)
}

func TestMergeBothEmpty(t *testing.T) {
	verifyMerge(t, runOneMerge(t, 4, nil, nil), nil, nil)
}

func TestMergeAllDuplicates(t *testing.T) {
	keysA := []uint64{7, 7, 7, 7}
	keysB := []uint64{7, 7, 7}
	verifyMerge(t, runOneMerge(t, 2, keysA, keysB), keysA, keysB)
}

func TestMergeDisjointRanges(t *testing.T) {
	// All of A sorts before all of B, and vice versa.
	lo := []uint64{1, 2, 3, 4, 5}
	hi := []uint64{100, 200, 300}
	verifyMerge(t, runOneMerge(t, 4, lo, hi), lo, hi)
	verifyMerge(t, runOneMerge(t, 4, hi, lo), hi, lo)
}

func TestMergeTokenLeavesBeforeItsRecord(t *testing.T) {
	// All of A sorts before all of B and the disks take no time, so the
	// token binds: every record costs it exactly one hop along its ring —
	// the holder's receive and send and the transfer. The record's own send
	// to its writer follows the token's, off that path; a holder that
	// shipped the record first would add a SendCPU to every hop (≈2.9 ms a
	// record against ≈2.1 ms).
	const tWidth, perInput = 8, 256
	lo, hi := make([]uint64, perInput), make([]uint64, perInput)
	for i := range lo {
		lo[i], hi[i] = uint64(i), uint64(perInput+i)
	}
	merged, took, _ := runTimedMerge(t, tWidth, lo, hi)
	verifyMerge(t, merged, lo, hi)
	cfg := msg.DefaultConfig() // the cluster's cost model
	tok := &mergeToken{Key: make([]byte, mergeTestKeyBytes)}
	hop := cfg.RemoteLatency + time.Duration(int64(mergeWireSize(tok)+cfg.HeaderBytes)*int64(time.Second)/cfg.BytesPerSec)
	perRecord := cfg.RecvCPU + cfg.SendCPU + hop
	if bound := time.Duration(1.05 * float64(len(merged)) * float64(perRecord)); took > bound {
		t.Errorf("merging %d records took %v (%v a record), want at most %v: one hop of %v a record",
			len(merged), took, took/time.Duration(len(merged)), bound, perRecord)
	}
}

func TestQuickMergeRandomInputs(t *testing.T) {
	f := func(rawA, rawB []uint16, widthSel bool) bool {
		if len(rawA) > 40 {
			rawA = rawA[:40]
		}
		if len(rawB) > 40 {
			rawB = rawB[:40]
		}
		tWidth := 2
		if widthSel {
			tWidth = 4
		}
		keysA := make([]uint64, len(rawA))
		for i, v := range rawA {
			keysA[i] = uint64(v)
		}
		keysB := make([]uint64, len(rawB))
		for i, v := range rawB {
			keysB[i] = uint64(v)
		}
		sort.Slice(keysA, func(i, j int) bool { return keysA[i] < keysA[j] })
		sort.Slice(keysB, func(i, j int) bool { return keysB[i] < keysB[j] })
		merged := runOneMerge(t, tWidth, keysA, keysB)
		// Inline verification (returning false beats t.Fatal inside
		// quick).
		if len(merged) != len(keysA)+len(keysB) {
			return false
		}
		want := append(append([]uint64(nil), keysA...), keysB...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i, raw := range merged {
			key, err := keyOf(raw, mergeTestKeyBytes)
			if err != nil {
				return false
			}
			if binary.BigEndian.Uint64(key) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeWireSizes pins the price of every merge body: the sort's numbers
// move with any of them. A body the table does not know panics rather than
// passing as a small message.
func TestMergeWireSizes(t *testing.T) {
	for _, tc := range []struct {
		body any
		want int
	}{
		{&mergeToken{Start: true}, 48},
		{&mergeToken{End: true, Seq: 9}, 48},
		{&mergeToken{Key: make([]byte, mergeTestKeyBytes)}, 48 + mergeTestKeyBytes},
		{&mergeRecord{Seq: 3, Raw: make([]byte, 100)}, 16 + 100},
		{mergeFinish{Total: 7}, 16},
		{mergeStop{}, 8},
	} {
		if got := mergeWireSize(tc.body); got != tc.want {
			t.Errorf("mergeWireSize(%T %+v) = %d, want %d", tc.body, tc.body, got, tc.want)
		}
	}
	for _, body := range []any{mergeToken{Start: true}, mergeRecord{}, &mergeFinish{}, nil} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mergeWireSize(%T) did not panic", body)
				}
			}()
			mergeWireSize(body)
		}()
	}
}

// TestAllocsMerge bounds the host objects one merge pass allocates per
// record: about 5, the reader's block reads and the writer's appends among
// them. The token is one message for the whole merge and a shipped record
// one object; a fresh message and boxed token per hop and per bounce, and a
// boxed record beside its message, made it about 10. The bound sits halfway.
// It skips under the race detector, whose instrumentation allocates.
func TestAllocsMerge(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const tWidth, perInput = 4, 256
	lo, hi := make([]uint64, perInput), make([]uint64, perInput)
	for i := range lo {
		// Interleaved keys: the token bounces between the inputs.
		lo[i], hi[i] = uint64(2*i), uint64(2*i+1)
	}
	merged, _, allocs := runTimedMerge(t, tWidth, lo, hi)
	verifyMerge(t, merged, lo, hi)
	const bound = 7.5
	if perRecord := float64(allocs) / float64(len(merged)); perRecord > bound {
		t.Errorf("merging %d records allocates %.2f objects a record, want at most %v", len(merged), perRecord, bound)
	}
}

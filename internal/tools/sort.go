package tools

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"bridge/internal/core"
	"bridge/internal/distrib"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// SortOptions tunes the merge-sort tool.
type SortOptions struct {
	// InCore is the in-core sort buffer in records; the paper's
	// prototype used 512.
	InCore int
	// KeyBytes is the sort key width: records compare by their first
	// KeyBytes payload bytes.
	KeyBytes int
	// CPUPerRecord models 1988-era compare/move cost per record per
	// sorting or merging pass.
	CPUPerRecord time.Duration
}

// The sort's defaults: the prototype's in-core buffer, and a 1988-era
// compare/move cost.
const (
	DefaultInCore       = 512
	DefaultCPUPerRecord = 30 * time.Microsecond
)

func (o *SortOptions) applyDefaults() {
	if o.InCore <= 0 {
		o.InCore = DefaultInCore
	}
	if o.KeyBytes <= 0 {
		o.KeyBytes = 8
	}
	if o.CPUPerRecord <= 0 {
		o.CPUPerRecord = DefaultCPUPerRecord
	}
}

// SortStats reports the two phases the paper's Table 4 separates.
type SortStats struct {
	Records   int64
	LocalSort time.Duration
	Merge     time.Duration
	PassTimes []time.Duration
}

// Sort sorts src into a new file dst using the paper's two-phase algorithm:
// each node externally sorts its own column in parallel (runs of InCore
// records, then local 2-way merges), and then log2(p) passes of the
// token-ring parallel merge combine the p sorted columns into one file
// interleaved across all p nodes. Records are one block each, as the paper
// assumes; p must be a power of two.
func Sort(pc sim.Proc, c *core.Client, src, dst string, opts SortOptions) (st SortStats, err error) {
	opts.applyDefaults()
	meta, err := openMeta(c, src)
	if err != nil {
		return st, err
	}
	if meta.Spec.Kind != distrib.RoundRobin || meta.Spec.Start != 0 {
		return st, fmt.Errorf("tools: sort requires round-robin placement starting at node 0")
	}
	p := meta.Spec.P
	passes := 0
	for w := p; w > 1; w >>= 1 {
		if w&1 != 0 {
			return st, fmt.Errorf("tools: sort requires a power-of-two interleaving, got p=%d", p)
		}
		passes++
	}
	dstMeta, err := c.CreateSpec(dst, meta.Spec, false)
	if err != nil {
		return st, fmt.Errorf("tools: creating %s: %w", dst, err)
	}
	network := c.Msg().Net()
	seq := network.Seq()
	ctrl := lfs.NewClient(pc, network, 0, fmt.Sprintf("tool.sort.%d.ctl", seq))
	defer ctrl.C.Close()
	// The output of pass k: one scratch id per intermediate pass, the same on
	// every node (each node holds exactly one column of one group's file per
	// pass), and the destination for the last. Pass 0 is the local sorts.
	passFile := func(k int) uint32 {
		if k == passes {
			return dstMeta.LFSFileID
		}
		return lfs.ScratchBase + 100_000 + uint32(seq%1000)*64 + uint32(k)
	}
	// A sort that fails leaves no scratch behind: whichever pass files exist
	// by then go, best effort — the failure being reported may be a node
	// that can no longer answer.
	defer func() {
		for k := 0; err != nil && k < passes; k++ {
			_ = discardEverywhere(ctrl, meta, passFile(k))
		}
	}()

	// Phase 1: parallel local external sorts.
	t0 := pc.Now()
	results, err := RunOnNodes(pc, network, meta.Nodes, "sortlocal", func(ctx *WorkerCtx) (any, error) {
		return localSortWorker(ctx, meta, passFile(0), passes > 0, seq, opts)
	})
	if err != nil {
		return st, fmt.Errorf("tools: local sort phase: %w", err)
	}
	for _, r := range results {
		st.Records += r.(int64)
	}
	st.LocalSort = pc.Now() - t0

	// Phase 2: log2(p) token-ring merge passes; pass k merges pairs of
	// files interleaved across 2^(k-1) nodes into files across 2^k.
	mergeStart := pc.Now()
	for k := 1; k <= passes; k++ {
		tWidth := 1 << k
		groups := make([]*mergeGroup, p/tWidth)
		for g := range groups {
			groups[g] = newMergeGroup(network, seq*100+uint64(k), k, g,
				meta.Nodes[g*tWidth:(g+1)*tWidth], passFile(k-1), passFile(k), opts.KeyBytes)
		}
		passStart := pc.Now()
		for _, g := range groups {
			g.start(pc, network)
		}
		_, err := RunOnNodes(pc, network, meta.Nodes, fmt.Sprintf("mergep%d", k), func(ctx *WorkerCtx) (any, error) {
			g := groups[ctx.Index/tWidth]
			pos := ctx.Index % tWidth
			return runMergeNode(ctx, g, pos, seq, k)
		})
		for _, g := range groups {
			g.close()
		}
		if err != nil {
			return st, fmt.Errorf("tools: merge pass %d: %w", k, err)
		}
		st.PassTimes = append(st.PassTimes, pc.Now()-passStart)
		// Discard the old files in parallel.
		if err := discardEverywhere(ctrl, meta, passFile(k-1)); err != nil {
			return st, fmt.Errorf("tools: discarding pass %d input: %w", k, err)
		}
	}
	st.Merge = pc.Now() - mergeStart
	return st, refreshSize(c, dst, st.Records)
}

// runMergeNode runs one node's share of a merge pass: its reader process
// and its writer process, concurrently. One that fails stops the rest of its
// group, which would otherwise wait for a token or a record that never comes.
func runMergeNode(ctx *WorkerCtx, g *mergeGroup, pos int, seq uint64, pass int) (any, error) {
	done := ctx.Proc.Runtime().NewQueue(fmt.Sprintf("mg%d.p%d.n%d.join", seq, pass, ctx.Node))
	spawn := func(role string, run func(sim.Proc, *msg.Network, msg.NodeID, int) error) {
		ctx.Proc.Go(fmt.Sprintf("mg%d.p%d.%s%d", seq, pass, role, pos), func(p sim.Proc) {
			err := run(p, ctx.Net, ctx.Node, pos)
			if err != nil {
				g.stopAll(p, ctx.Net, ctx.Node)
			}
			done.Send(err)
		})
	}
	spawn("reader", g.runReader)
	spawn("writer", g.runWriter)
	var firstErr error
	for i := 0; i < 2; i++ {
		v, ok := done.Recv(ctx.Proc)
		if !ok {
			break
		}
		if err, isErr := v.(error); isErr && err != nil && firstErr == nil {
			firstErr = err
		}
	}
	done.Close()
	return nil, firstErr
}

// discardEverywhere frees a scratch file id every node of the sorted file
// holds a column of, overlapped, the way the delete tool frees: bitmap only, a
// chain walk and no per-block rewrite. No column of any pass is longer than
// the sorted file's first, whose length bounds the walk. A node that has no
// such file is fine (a failed sort discards what may not exist yet).
func discardEverywhere(ctrl *lfs.Client, src core.Meta, fileID uint32) error {
	op := lfs.DeleteReq{FileID: fileID, Fast: true}
	calls := make([]lfs.Call, 0, len(src.Nodes))
	for _, n := range src.Nodes {
		call, err := ctrl.Start(msg.Addr{Node: n, Port: lfs.PortName}, op)
		if err != nil {
			return err
		}
		calls = append(calls, call)
	}
	var firstErr error
	for _, call := range calls {
		_, st, err := msg.ReplyAs[lfs.DeleteResp](ctrl.AwaitWalk(call, src.LocalBlocks(0)))
		if err == nil && st.Code() != lfs.CodeNotFound {
			err = lfs.Err(st)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// localSortWorker externally sorts one node's column of src into outFile:
// in-core runs of opts.InCore records, then repeated 2-way run merges. The
// expected time is the paper's O((n/p)(1+log c) + (n/p) log(n/(c p))).
func localSortWorker(ctx *WorkerCtx, src core.Meta, outFile uint32, createOut bool, seq uint64, opts SortOptions) (_ int64, err error) {
	l := src.LocalBlocks(ctx.Index)
	if createOut {
		if err := ctx.LFS.Create(ctx.Node, outFile); err != nil {
			return 0, fmt.Errorf("local sort: creating output: %w", err)
		}
	}
	runBase := lfs.ScratchBase + 200_000 + uint32(seq%1000)*1024
	nextRun := runBase
	// newRun creates the next run file, or names outFile when the output
	// of this step is the whole column.
	newRun := func(last bool) (uint32, error) {
		if last {
			return outFile, nil
		}
		id := nextRun
		nextRun++
		if err := ctx.LFS.Create(ctx.Node, id); err != nil {
			return 0, fmt.Errorf("local sort: creating run: %w", err)
		}
		return id, nil
	}
	// A worker that fails leaves no run file behind; most are gone already.
	defer func() {
		for id := runBase; err != nil && id < nextRun; id++ {
			_, _ = ctx.LFS.Delete(ctx.Node, id, l, true)
		}
	}()

	// Run formation: read up to InCore records, sort in core, write out.
	var runs []sortRun
	rd := newColReader(ctx.LFS, ctx.Node, src.LFSFileID, l)
	defer rd.stop()
	for start := int64(0); start < l; start += int64(opts.InCore) {
		batch := make([]rawRecord, 0, min(int64(opts.InCore), l-start))
		for len(batch) < cap(batch) {
			raw, key, err := rd.nextKeyed(opts.KeyBytes)
			if err != nil {
				return 0, fmt.Errorf("local sort: %w", err)
			}
			batch = append(batch, rawRecord{key: key, raw: raw})
		}
		// In-core sort CPU: ~n log2(c) comparisons.
		ctx.Proc.Sleep(time.Duration(len(batch)*log2ceil(opts.InCore)) * opts.CPUPerRecord)
		sort.SliceStable(batch, func(a, b int) bool { return bytes.Compare(batch[a].key, batch[b].key) < 0 })
		target, err := newRun(l <= int64(opts.InCore))
		if err != nil {
			return 0, err
		}
		if target != outFile {
			runs = append(runs, sortRun{target, int64(len(batch))})
		}
		wr := newColWriter(ctx.LFS, ctx.Node, target)
		for _, r := range batch {
			if err := wr.put(r.raw); err != nil {
				return 0, fmt.Errorf("local sort: writing run: %w", err)
			}
		}
		if err := wr.flush(); err != nil {
			return 0, fmt.Errorf("local sort: writing run: %w", err)
		}
	}
	// Merge the two shortest runs until one remains, ties to the older (its
	// id is the lower) — the optimal order of two-way merges, which moves
	// each block as few times as any can; the final merge writes the output
	// file directly. (Two or more runs always end in a merge of exactly two,
	// so no single run is ever left to move.)
	for len(runs) > 1 {
		slices.SortFunc(runs, func(x, y sortRun) int {
			return cmp.Or(cmp.Compare(x.blocks, y.blocks), cmp.Compare(x.file, y.file))
		})
		a, b := runs[0], runs[1]
		if b.file < a.file {
			a, b = b, a // the older run goes first
		}
		target, err := newRun(len(runs) == 2)
		if err != nil {
			return 0, err
		}
		if err := localMerge2(ctx, a.file, b.file, target, opts); err != nil {
			return 0, err
		}
		for _, in := range [2]uint32{a.file, b.file} {
			if _, err := ctx.LFS.Delete(ctx.Node, in, l, true); err != nil {
				return 0, fmt.Errorf("local sort: discarding run: %w", err)
			}
		}
		runs = runs[2:]
		if target != outFile {
			runs = append(runs, sortRun{target, a.blocks + b.blocks})
		}
	}
	return l, nil
}

// sortRun is one sorted run file of a local sort and its length in blocks.
type sortRun struct {
	file   uint32
	blocks int64
}

type rawRecord struct {
	key []byte
	raw []byte
}

func log2ceil(n int) int {
	k := 0
	for v := 1; v < n; v <<= 1 {
		k++
	}
	if k == 0 {
		k = 1
	}
	return k
}

// localMerge2 merges runs a and b into target, sequentially, charging
// CPUPerRecord per record moved.
func localMerge2(ctx *WorkerCtx, a, b, target uint32, opts SortOptions) error {
	var in [2]struct {
		rd       *colReader
		raw, key []byte
	}
	for i, file := range [2]uint32{a, b} {
		info, err := ctx.LFS.Stat(ctx.Node, file)
		if err != nil {
			return fmt.Errorf("local merge: stat run %d: %w", file, err)
		}
		in[i].rd = newColReader(ctx.LFS, ctx.Node, file, int64(info.Blocks))
		defer in[i].rd.stop()
		if in[i].raw, in[i].key, err = in[i].rd.nextKeyed(opts.KeyBytes); err != nil {
			return fmt.Errorf("local merge: %w", err)
		}
	}
	out := newColWriter(ctx.LFS, ctx.Node, target)
	for in[0].raw != nil || in[1].raw != nil {
		cur := &in[0]
		if cur.raw == nil || (in[1].raw != nil && bytes.Compare(in[1].key, cur.key) < 0) {
			cur = &in[1]
		}
		ctx.Proc.Sleep(opts.CPUPerRecord)
		err := out.put(cur.raw)
		if err == nil {
			cur.raw, cur.key, err = cur.rd.nextKeyed(opts.KeyBytes)
		}
		if err != nil {
			return fmt.Errorf("local merge: %w", err)
		}
	}
	if err := out.flush(); err != nil {
		return fmt.Errorf("local merge: %w", err)
	}
	return nil
}

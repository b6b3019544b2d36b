package tools

import (
	"fmt"
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

func (o *SortOptions) applyDefaults() {
	if o.InCore <= 0 {
		o.InCore = 512
	}
	if o.KeyBytes <= 0 {
		o.KeyBytes = 8
	}
	if o.CPUPerRecord <= 0 {
		o.CPUPerRecord = 30 * time.Microsecond
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
func Sort(pc sim.Proc, c *core.Client, src, dst string, opts SortOptions) (SortStats, error) {
	opts.applyDefaults()
	var st SortStats
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
	seq := toolSeq.Add(1)
	// Intermediate pass files use one scratch id per pass, the same on
	// every node (each node holds exactly one column of one group's
	// file per pass).
	passFile := func(k int) uint32 {
		return lfs.ScratchBase + 100_000 + uint32(seq%1000)*64 + uint32(k)
	}
	phase1Out := dstMeta.LFSFileID
	if passes > 0 {
		phase1Out = passFile(0)
	}

	// Phase 1: parallel local external sorts.
	t0 := pc.Now()
	results, err := RunOnNodes(pc, network, meta.Nodes, "sortlocal", func(ctx *WorkerCtx) (any, error) {
		return localSortWorker(ctx, meta, phase1Out, phase1Out != dstMeta.LFSFileID, seq, opts)
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
		out := dstMeta.LFSFileID
		if k < passes {
			out = passFile(k)
		}
		groups := make([]*mergeGroup, p/tWidth)
		for g := range groups {
			groups[g] = newMergeGroup(network, seq*100+uint64(k), k, g,
				meta.Nodes[g*tWidth:(g+1)*tWidth], passFile(k-1), out, opts.KeyBytes)
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
		if err := deleteEverywhere(c.Msg(), meta.Nodes, passFile(k-1)); err != nil {
			return st, fmt.Errorf("tools: discarding pass %d input: %w", k, err)
		}
	}
	st.Merge = pc.Now() - mergeStart
	return st, refreshSize(c, dst, st.Records)
}

// runMergeNode runs one node's share of a merge pass: its reader process
// and its writer process, concurrently.
func runMergeNode(ctx *WorkerCtx, g *mergeGroup, pos int, seq uint64, pass int) (any, error) {
	done := ctx.Proc.Runtime().NewQueue(fmt.Sprintf("mg%d.p%d.n%d.join", seq, pass, ctx.Node))
	ctx.Proc.Go(fmt.Sprintf("mg%d.p%d.reader%d", seq, pass, pos), func(p sim.Proc) {
		_, err := g.runReader(p, ctx.Net, ctx.Node, pos)
		done.Send(err)
	})
	ctx.Proc.Go(fmt.Sprintf("mg%d.p%d.writer%d", seq, pass, pos), func(p sim.Proc) {
		_, err := g.runWriter(p, ctx.Net, ctx.Node, pos)
		done.Send(err)
	})
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

// deleteEverywhere removes a node-local file id on every node, overlapped.
func deleteEverywhere(ctrl *msg.Client, nodes []msg.NodeID, fileID uint32) error {
	op := lfs.DeleteReq{FileID: fileID}
	ids := make([]uint64, 0, len(nodes))
	for _, n := range nodes {
		id, err := ctrl.Start(msg.Addr{Node: n, Port: lfs.PortName}, op, lfs.WireSize(op))
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	ms, err := ctrl.Gather(ids)
	if err != nil {
		return err
	}
	for _, m := range ms {
		if st, _ := msg.StatusOf(m.Body); !st.OK() {
			return lfs.Err(st)
		}
	}
	return nil
}

// localSortWorker externally sorts one node's column of src into outFile:
// in-core runs of opts.InCore records, then repeated 2-way run merges. The
// expected time is the paper's O((n/p)(1+log c) + (n/p) log(n/(c p))).
func localSortWorker(ctx *WorkerCtx, src core.Meta, outFile uint32, createOut bool, seq uint64, opts SortOptions) (int64, error) {
	l := src.LocalBlocks(ctx.Index)
	if createOut {
		if err := ctx.LFS.Create(ctx.Node, outFile); err != nil {
			return 0, fmt.Errorf("local sort: creating output: %w", err)
		}
	}
	if l == 0 {
		return 0, nil
	}
	runBase := lfs.ScratchBase + 200_000 + uint32(seq%1000)*1024
	nextRun := runBase
	newRunID := func() uint32 {
		id := nextRun
		nextRun++
		return id
	}

	// Run formation: read up to InCore records, sort in core, write out.
	var runs []uint32
	hint := int32(-1)
	for start := int64(0); start < l; start += int64(opts.InCore) {
		end := start + int64(opts.InCore)
		if end > l {
			end = l
		}
		batch := make([]rawRecord, 0, end-start)
		for j := start; j < end; j++ {
			raw, addr, err := ctx.LFS.Read(ctx.Node, src.LFSFileID, uint32(j), hint)
			if err != nil {
				return 0, fmt.Errorf("local sort: read %d: %w", j, err)
			}
			hint = addr
			key, err := keyOf(raw, opts.KeyBytes)
			if err != nil {
				return 0, fmt.Errorf("local sort: block %d: %w", j, err)
			}
			batch = append(batch, rawRecord{key: key, raw: raw})
		}
		// In-core sort CPU: ~n log2(c) comparisons.
		ctx.Proc.Sleep(time.Duration(len(batch)*log2ceil(opts.InCore)) * opts.CPUPerRecord)
		sort.SliceStable(batch, func(a, b int) bool { return lessKey(batch[a].key, batch[b].key) })
		target := outFile
		if l > int64(opts.InCore) {
			target = newRunID()
			if err := ctx.LFS.Create(ctx.Node, target); err != nil {
				return 0, fmt.Errorf("local sort: creating run: %w", err)
			}
			runs = append(runs, target)
		}
		whint := int32(-1)
		for j, r := range batch {
			addr, err := ctx.LFS.Write(ctx.Node, target, uint32(j), r.raw, whint)
			if err != nil {
				return 0, fmt.Errorf("local sort: writing run: %w", err)
			}
			whint = addr
		}
	}
	// Merge runs pairwise until one remains; the final merge writes the
	// output file directly.
	for len(runs) > 1 {
		var next []uint32
		for i := 0; i+1 < len(runs); i += 2 {
			target := outFile
			if len(runs) > 2 {
				target = newRunID()
				if err := ctx.LFS.Create(ctx.Node, target); err != nil {
					return 0, fmt.Errorf("local sort: creating merge target: %w", err)
				}
			}
			if err := localMerge2(ctx, runs[i], runs[i+1], target, opts); err != nil {
				return 0, err
			}
			for _, in := range runs[i : i+2] {
				if _, err := ctx.LFS.Delete(ctx.Node, in); err != nil {
					return 0, fmt.Errorf("local sort: deleting run: %w", err)
				}
			}
			if target != outFile {
				next = append(next, target)
			}
		}
		if len(runs)%2 == 1 {
			next = append(next, runs[len(runs)-1])
		}
		runs = next
	}
	if len(runs) == 1 {
		// A single leftover run (odd run counts collapse to one): move
		// it into the output file.
		if err := localMerge2(ctx, runs[0], 0, outFile, opts); err != nil {
			return 0, err
		}
		if _, err := ctx.LFS.Delete(ctx.Node, runs[0]); err != nil {
			return 0, fmt.Errorf("local sort: deleting final run: %w", err)
		}
	}
	return l, nil
}

type rawRecord struct {
	key []byte
	raw []byte
}

func lessKey(a, b []byte) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
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

// localMerge2 merges runs a and b (b may be 0 for a 1-input copy) into
// target, sequentially, charging CPUPerRecord per record moved.
func localMerge2(ctx *WorkerCtx, a, b uint32, target uint32, opts SortOptions) error {
	type cursorState struct {
		file  uint32
		pos   int64
		size  int64
		hint  int32
		raw   []byte
		key   []byte
		alive bool
	}
	open := func(file uint32) (*cursorState, error) {
		if file == 0 {
			return &cursorState{}, nil
		}
		info, err := ctx.LFS.Stat(ctx.Node, file)
		if err != nil {
			return nil, fmt.Errorf("local merge: stat run: %w", err)
		}
		return &cursorState{file: file, size: int64(info.Blocks), hint: -1, alive: true}, nil
	}
	advance := func(cs *cursorState) error {
		if !cs.alive || cs.pos >= cs.size {
			cs.alive = false
			cs.raw, cs.key = nil, nil
			return nil
		}
		raw, addr, err := ctx.LFS.Read(ctx.Node, cs.file, uint32(cs.pos), cs.hint)
		if err != nil {
			return fmt.Errorf("local merge: read: %w", err)
		}
		cs.hint = addr
		key, err := keyOf(raw, opts.KeyBytes)
		if err != nil {
			return err
		}
		cs.raw, cs.key = raw, key
		cs.pos++
		return nil
	}
	ca, err := open(a)
	if err != nil {
		return err
	}
	cb, err := open(b)
	if err != nil {
		return err
	}
	if err := advance(ca); err != nil {
		return err
	}
	if err := advance(cb); err != nil {
		return err
	}
	// Find the append position in the target (it may already hold
	// earlier merged runs... it does not in this scheme, but stat keeps
	// this robust).
	tinfo, err := ctx.LFS.Stat(ctx.Node, target)
	if err != nil {
		return fmt.Errorf("local merge: stat target: %w", err)
	}
	out := uint32(tinfo.Blocks)
	whint := int32(-1)
	for ca.raw != nil || cb.raw != nil {
		var cur *cursorState
		switch {
		case ca.raw == nil:
			cur = cb
		case cb.raw == nil:
			cur = ca
		case lessKey(cb.key, ca.key):
			cur = cb
		default:
			cur = ca
		}
		ctx.Proc.Sleep(opts.CPUPerRecord)
		addr, err := ctx.LFS.Write(ctx.Node, target, out, cur.raw, whint)
		if err != nil {
			return fmt.Errorf("local merge: write: %w", err)
		}
		whint = addr
		out++
		if err := advance(cur); err != nil {
			return err
		}
	}
	return nil
}

package core

import (
	"fmt"

	"bridge/internal/distrib"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// Scatter-gather I/O: the batched counterpart of lfsRead/lfsWrite. A run of
// consecutive global blocks is split by the file's layout into one vectored
// LFS call per constituent node, all calls are started before any reply is
// awaited (so all p disks seek concurrently), and replies are gathered in
// node-index order for determinism. Each call is an lfsStart and an
// lfsFinish, the single-block path's own halves, so health fast-fail,
// in-flight abandon and LFSRetry behave identically for both.

// maxBatchBlocks bounds one batched request, keeping reply messages (and
// the server's working set per request) within reason.
const maxBatchBlocks = 1024

// vecRun is the slice of a global block range that lands on one node.
type vecRun struct {
	nodeIdx int
	node    msg.NodeID
	locals  []uint32
	globals []int64
}

// splitRange partitions [start, start+count) by layout into per-node runs,
// returned in node-index order. Global block numbers ascend within each run.
// The runs' locals (and globals) are capacity-clipped windows of one array
// sized by a counting pass, so a split costs three objects however many
// blocks and nodes it spans.
func splitRange(ent *dirent, l distrib.Layout, start int64, count int) []vecRun {
	byNode := make([]vecRun, len(ent.meta.Nodes))
	for b := start; b < start+int64(count); b++ {
		byNode[l.NodeFor(b)].nodeIdx++ // block count, until the windows are cut
	}
	locals := make([]uint32, count)
	globals := make([]int64, count)
	off := 0
	for idx := range byNode {
		r := &byNode[idx]
		n := r.nodeIdx
		r.nodeIdx, r.node = idx, ent.meta.Nodes[idx]
		r.locals, r.globals = locals[off:off:off+n], globals[off:off:off+n]
		off += n
	}
	for b := start; b < start+int64(count); b++ {
		r := &byNode[l.NodeFor(b)]
		r.locals = append(r.locals, uint32(l.LocalFor(b)))
		r.globals = append(r.globals, b)
	}
	runs := byNode[:0]
	for _, r := range byNode {
		if len(r.locals) > 0 {
			runs = append(runs, r)
		}
	}
	return runs
}

// vecCall is one started vectored LFS call and the run it carries.
type vecCall struct {
	lfsPend
	run vecRun
}

// discardVec abandons started vectored calls nobody will gather.
func (s *Server) discardVec(calls []vecCall) {
	for _, c := range calls {
		s.lc.Discard(c.Call)
	}
}

// startVec starts a vectored call for run. On failure every call already
// started for the same range is discarded, so nothing is left in flight.
func (s *Server) startVec(calls []vecCall, run vecRun, body any, size int) ([]vecCall, error) {
	c, err := s.lfsStart(run.node, lfs.PortName, body, size)
	if err != nil {
		s.discardVec(calls)
		return nil, err
	}
	return append(calls, vecCall{lfsPend: c, run: run}), nil
}

// startReadVec scatters a read of count consecutive global blocks from
// start: one vectored call per node, all started before any is awaited.
// The calls return in node-index order for gatherReadVec.
func (s *Server) startReadVec(ent *dirent, start int64, count int) ([]vecCall, error) {
	l, err := ent.layout()
	if err != nil {
		return nil, err
	}
	runs := splitRange(ent, l, start, count)
	calls := make([]vecCall, 0, len(runs))
	for _, run := range runs {
		req := lfs.ReadVecReq{FileID: ent.meta.LFSFileID, Blocks: run.locals, Hint: ent.hintFor(run.node)}
		if calls, err = s.startVec(calls, run, req, lfs.WireSize(req)); err != nil {
			return nil, err
		}
	}
	return calls, nil
}

// gatherReadVec collects the replies of a startReadVec in node-index
// order and returns the payloads in global block order. The whole read
// fails on the first per-block failure (in node-index, then block order),
// with outstanding replies discarded.
func (s *Server) gatherReadVec(p sim.Proc, ent *dirent, calls []vecCall, start int64, count int) ([][]byte, error) {
	out := make([][]byte, count)
	for i, c := range calls {
		m, err := s.lfsFinish(p, c.lfsPend)
		if err != nil {
			return nil, abortAfter(s, calls, i, lfsErr(err))
		}
		resp, err := lfs.Reply[lfs.ReadVecResp](m, nil)
		if err != nil {
			return nil, abortAfter(s, calls, i, fmt.Errorf("%w: %w", ErrLFSFailed, err))
		}
		if len(resp.Blocks) != len(c.run.globals) {
			return nil, abortAfter(s, calls, i, fmt.Errorf("%w: vectored read returned %d of %d blocks",
				ErrLFSFailed, len(resp.Blocks), len(c.run.globals)))
		}
		for j, v := range resp.Blocks {
			if err := lfs.Err(v.Status); err != nil {
				return nil, abortAfter(s, calls, i, fmt.Errorf("%w: block %d: %w", ErrLFSFailed, c.run.globals[j], err))
			}
			ent.hints[c.run.node] = v.Addr
			_, payload, err := DecodeBlock(v.Data)
			if err != nil {
				return nil, abortAfter(s, calls, i, err)
			}
			out[c.run.globals[j]-start] = payload
		}
	}
	return out, nil
}

// lfsReadN fetches count consecutive global blocks starting at start with
// one vectored LFS call per node, so all the constituent disks seek
// concurrently. Payloads return in global block order.
func (s *Server) lfsReadN(p sim.Proc, ent *dirent, start int64, count int) ([][]byte, error) {
	if count <= 0 {
		return nil, nil
	}
	calls, err := s.startReadVec(ent, start, count)
	if err != nil {
		return nil, err
	}
	return s.gatherReadVec(p, ent, calls, start, count)
}

// abortAfter discards the replies not yet awaited (calls after index i).
func abortAfter(s *Server, calls []vecCall, i int, err error) error {
	s.discardVec(calls[i+1:])
	return err
}

// writeVecReq builds one node's share of a vectored write of payloads, the
// consecutive global blocks from start: run's blocks with their Bridge
// headers, under a fresh OpID for the node's dedup.
func (s *Server) writeVecReq(ent *dirent, run vecRun, start int64, payloads [][]byte) lfs.WriteVecReq {
	vw := make([]lfs.VecWrite, len(run.locals))
	for j, local := range run.locals {
		g := run.globals[j]
		vw[j] = lfs.VecWrite{BlockNum: local, Data: EncodeBlock(BlockHeader{
			FileID:      ent.meta.FileID,
			GlobalBlock: g,
			P:           uint16(ent.meta.Spec.P),
			Start:       uint16(ent.meta.Spec.Start),
		}, payloads[g-start])}
	}
	s.nextLFSOp++
	return lfs.WriteVecReq{FileID: ent.meta.LFSFileID, Blocks: vw, Hint: ent.hintFor(run.node), OpID: s.nextLFSOp}
}

// startWriteVec scatters a write of consecutive global blocks from start:
// one vectored LFS call per node, all started before any is awaited. On a
// start failure every already-started call is discarded and nothing is in
// flight.
func (s *Server) startWriteVec(ent *dirent, start int64, payloads [][]byte) ([]vecCall, error) {
	l, err := ent.layout()
	if err != nil {
		return nil, err
	}
	runs := splitRange(ent, l, start, len(payloads))
	calls := make([]vecCall, 0, len(runs))
	for _, run := range runs {
		req := s.writeVecReq(ent, run, start, payloads)
		if calls, err = s.startVec(calls, run, req, lfs.WireSize(req)); err != nil {
			return nil, err
		}
	}
	return calls, nil
}

// gatherWriteVec collects the replies of the vectored write calls covering
// count blocks from start; polled, when not nil, holds replies already taken
// by lfsPoll (nil where none was), by call. All replies are gathered (no
// early abort: later nodes' writes may have landed and their hints matter);
// the return value counts the contiguous prefix of global blocks that
// succeeded, with the first failure — in global block order — as the error.
func (s *Server) gatherWriteVec(p sim.Proc, ent *dirent, calls []vecCall, polled []*msg.Message, start int64, count int) (int, error) {
	okBlock := make([]bool, count)
	blockErr := make([]error, count)
	var callErr error
	for i, c := range calls {
		var (
			m   *msg.Message
			err error
		)
		if polled != nil && polled[i] != nil {
			m = polled[i]
		} else {
			m, err = s.lfsFinish(p, c.lfsPend)
		}
		if err != nil {
			err = lfsErr(err)
			for _, g := range c.run.globals {
				blockErr[g-start] = err
			}
			if callErr == nil {
				callErr = err
			}
			continue
		}
		resp, err := lfs.Reply[lfs.WriteVecResp](m, nil)
		if err != nil || len(resp.Blocks) != len(c.run.globals) {
			if err == nil {
				err = fmt.Errorf("vectored write returned %d of %d blocks", len(resp.Blocks), len(c.run.globals))
			}
			wrapped := fmt.Errorf("%w: %w", ErrLFSFailed, err)
			for _, g := range c.run.globals {
				blockErr[g-start] = wrapped
			}
			if callErr == nil {
				callErr = wrapped
			}
			continue
		}
		for j, v := range resp.Blocks {
			g := c.run.globals[j]
			if err := lfs.Err(v.Status); err != nil {
				blockErr[g-start] = fmt.Errorf("%w: block %d: %w", ErrLFSFailed, g, err)
				continue
			}
			okBlock[g-start] = true
			ent.hints[c.run.node] = v.Addr
		}
	}
	prefix := 0
	for prefix < len(okBlock) && okBlock[prefix] {
		prefix++
	}
	if prefix == len(okBlock) {
		return prefix, nil
	}
	// First failure in global order wins; a node-level error may have
	// claimed a later block than a per-block failure did.
	if err := blockErr[prefix]; err != nil {
		return prefix, err
	}
	if callErr != nil {
		return prefix, callErr
	}
	return prefix, fmt.Errorf("%w: block %d failed", ErrLFSFailed, start+int64(prefix))
}

// lfsWriteN stores consecutive global blocks starting at start: the
// synchronous scatter-gather write (startWriteVec + gatherWriteVec in one
// step). The write-behind cache builds, starts and gathers the same calls a
// node at a time (writebehind.go).
func (s *Server) lfsWriteN(p sim.Proc, ent *dirent, start int64, payloads [][]byte) (int, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	calls, err := s.startWriteVec(ent, start, payloads)
	if err != nil {
		return 0, err
	}
	return s.gatherWriteVec(p, ent, calls, nil, start, len(payloads))
}

// readBlocks fetches count consecutive blocks of a formulaic file. A
// single-block command (one) is answered with the single-block LFS call —
// the paper's naive path, one ReadReq per request; every other read is one
// vectored call per node.
func (s *Server) readBlocks(p sim.Proc, ent *dirent, pos int64, count int, one bool) ([][]byte, error) {
	if one {
		data, err := s.lfsRead(p, ent, pos)
		if err != nil {
			return nil, err
		}
		s.one[0] = data
		return s.one[:], nil
	}
	return s.lfsReadN(p, ent, pos, count)
}

// writeBlocks is readBlocks' twin. (A takeover replays every logged write as
// vectors; the writes are positional, so the shape it first landed in does
// not matter.)
func (s *Server) writeBlocks(p sim.Proc, ent *dirent, pos int64, payloads [][]byte, one bool) (int, error) {
	if one {
		if err := s.lfsWrite(p, ent, pos, payloads[0]); err != nil {
			return 0, err
		}
		return 1, nil
	}
	return s.lfsWriteN(p, ent, pos, payloads)
}

// seqRead reads up to max blocks at the client's cursor — SeqRead (one set,
// max 1) and its batched form SeqReadN. Formulaic files go through the
// read-ahead cache when one is configured, or straight to the LFS layer;
// disordered files follow their chain (inherently one block at a time, but
// still one client RPC). The read happens first (so an error never advances
// the cursor), then the cursor movement commits — which on a replicated
// group makes the reply healable: a retransmission re-reads the same
// recorded window.
func (s *Server) seqRead(p sim.Proc, from msg.Addr, name string, max int, opID uint64, one bool) ([][]byte, bool, error) {
	if max <= 0 {
		return nil, false, fmt.Errorf("%w: batch of %d blocks", ErrBadArg, max)
	}
	if max > maxBatchBlocks {
		max = maxBatchBlocks
	}
	ent, err := s.lookup(name)
	if err != nil {
		return nil, false, err
	}
	if _, err := s.drainWB(p, name, from, opID); err != nil {
		return nil, false, err
	}
	if err := s.lease(p); err != nil {
		return nil, false, err
	}
	key := cursorKey{client: from, name: name}
	cur := s.cursors[key]
	if cur == nil && s.grp == nil {
		// Implicit open: the open operation is only a hint, so a read
		// without one still works; a group of one just pays the size
		// refresh here. (A replicated group has no refresh to pay, and its
		// cursor appears when the read below commits.)
		if err := s.refreshSize(p, ent); err != nil {
			return nil, false, err
		}
		if err := s.commit(p, rop{Kind: ropOpen, Client: from, Name: name}); err != nil {
			return nil, false, err
		}
		cur = s.cursors[key]
	}
	var pos int64
	if cur != nil {
		pos = cur.readPos
	}
	if pos >= ent.meta.Blocks {
		// EOF replies commit nothing: the cursor does not move.
		return nil, true, nil
	}
	count := max
	if remain := ent.meta.Blocks - pos; int64(count) > remain {
		count = int(remain)
	}
	var blocks [][]byte
	switch {
	case ent.meta.Spec.Kind == distrib.Disordered:
		blocks, err = s.readChainN(p, ent, cur, count)
	case s.ra != nil:
		blocks, err = s.ra.read(p, s, ent, from, pos, count)
	default:
		blocks, err = s.readBlocks(p, ent, pos, count, one)
	}
	if err != nil {
		return nil, false, err
	}
	eof := pos+int64(count) >= ent.meta.Blocks
	op := rop{Kind: ropSeqRead, Client: from, Op: opID, Name: name, At: pos, N: count, EOF: eof}
	if err := s.commit(p, op); err != nil {
		return nil, false, err
	}
	return blocks, eof, nil
}

// readChainN follows a disordered chain for count blocks, using (and
// updating) the cursor's chain position. A mid-batch error discards the
// partial result, so the cursor's chain state is restored to its entry
// value: the caller leaves readPos unchanged on error, and the invariant
// that chain points at block readPos must hold for the retry.
func (s *Server) readChainN(p sim.Proc, ent *dirent, cur *cursor, count int) ([][]byte, error) {
	savedChain, savedValid := cur.chain, cur.chainValid
	out := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		var (
			payload []byte
			next    chainLoc
			hasNext bool
			err     error
		)
		if cur.chainValid {
			payload, next, hasNext, err = s.readChainBlock(p, ent, cur.chain)
		} else {
			payload, next, hasNext, err = s.readChainAt(p, ent, cur.readPos+int64(i))
		}
		if err != nil {
			cur.chain, cur.chainValid = savedChain, savedValid
			return nil, err
		}
		cur.chain, cur.chainValid = next, hasNext
		out = append(out, payload)
	}
	return out, nil
}

// readAt reads count blocks starting at blockNum — RandRead (one set,
// count 1) and its batched form RandReadN. It bypasses the read-ahead
// cache (which is a sequential-reader optimization).
func (s *Server) readAt(p sim.Proc, from msg.Addr, name string, blockNum int64, count int, one bool) ([][]byte, error) {
	if count <= 0 {
		return nil, fmt.Errorf("%w: batch of %d blocks", ErrBadArg, count)
	}
	if count > maxBatchBlocks {
		count = maxBatchBlocks
	}
	ent, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	if _, err := s.drainWB(p, name, from, 0); err != nil {
		return nil, err
	}
	if err := s.lease(p); err != nil {
		return nil, err
	}
	if blockNum < 0 || blockNum >= ent.meta.Blocks {
		return nil, fmt.Errorf("%w: block %d of %d", ErrEOF, blockNum, ent.meta.Blocks)
	}
	if remain := ent.meta.Blocks - blockNum; int64(count) > remain {
		count = int(remain)
	}
	if ent.meta.Spec.Kind == distrib.Disordered {
		return s.readChainN(p, ent, &cursor{readPos: blockNum}, count)
	}
	return s.readBlocks(p, ent, blockNum, count, one)
}

// write stores len(payloads) consecutive blocks starting at blockNum —
// SeqWrite and RandWrite (one set, one payload) and the batched RandWriteN.
// blockNum -1 or the current size appends; a run may overwrite the tail
// and extend past it. It returns how many blocks from the front of the run
// landed; on partial failure the file size covers exactly the contiguous
// prefix, so a retry of the same run is safe.
func (s *Server) write(p sim.Proc, from msg.Addr, name string, blockNum int64, payloads [][]byte, opID uint64, one bool) (int, error) {
	ent, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	for _, payload := range payloads {
		if len(payload) > PayloadBytes {
			return 0, fmt.Errorf("%w: payload %d exceeds %d", ErrBadArg, len(payload), PayloadBytes)
		}
	}
	if len(payloads) == 0 {
		return 0, nil
	}
	if len(payloads) > maxBatchBlocks {
		return 0, fmt.Errorf("%w: batch of %d exceeds %d blocks", ErrBadArg, len(payloads), maxBatchBlocks)
	}
	s.raInvalidate(name)
	disordered := ent.meta.Spec.Kind == distrib.Disordered
	if one && s.wb != nil && !disordered && (blockNum < 0 || blockNum == ent.meta.Blocks) {
		// A single-block append is what write-behind buffers.
		if err := s.appendBehind(p, ent, payloads[0], from, opID); err != nil {
			return 0, err
		}
		return 1, nil
	}
	// Everything else writes through, so any write-behind state for the
	// file drains first (it may own the tail this run starts at). The
	// drain can shrink the file on a deferred failure, hence the bounds
	// check comes after it.
	if _, err := s.drainWB(p, name, from, opID); err != nil {
		return 0, err
	}
	if blockNum < 0 {
		blockNum = ent.meta.Blocks
	}
	if blockNum > ent.meta.Blocks {
		return 0, fmt.Errorf("%w: block %d beyond size %d", ErrBadArg, blockNum, ent.meta.Blocks)
	}
	if disordered {
		return s.writeDisordered(p, ent, blockNum, payloads)
	}
	// The whole run — overwrite, append, or both — commits with its
	// payloads (apply extends the size to cover it), so on a replicated
	// group a retransmission heals and a failover replays the identical
	// bytes. Then it lands on the storage nodes; a failed landing corrects
	// the committed size with a fixup: appends shrink back to the durable
	// prefix, interior overwrites keep the old size.
	old := ent.meta.Blocks
	op := rop{
		Kind: ropWrite, Client: from, Op: opID, Name: name,
		Meta: Meta{FileID: ent.meta.FileID}, At: blockNum, N: len(payloads), Data: payloads,
	}
	if err := s.commit(p, op); err != nil {
		return 0, err
	}
	written, err := s.writeBlocks(p, ent, blockNum, payloads, one)
	if err != nil {
		fixSize := blockNum + int64(written)
		if old > fixSize {
			fixSize = old
		}
		fix := rop{Kind: ropFixup, Client: from, Op: opID, Name: name, Blocks: fixSize}
		if cerr := s.commit(p, fix); cerr != nil {
			return written, cerr
		}
	}
	return written, err
}

// writeDisordered applies a write to a chain file one block at a time (the
// chain serializes placement), preserving prefix semantics. Only a group
// of one has chain files; their size and chain state live in the entry.
func (s *Server) writeDisordered(p sim.Proc, ent *dirent, blockNum int64, payloads [][]byte) (int, error) {
	for i, payload := range payloads {
		b := blockNum + int64(i)
		var err error
		if b == ent.meta.Blocks {
			err = s.appendDisordered(p, ent, payload)
		} else {
			err = s.overwriteDisordered(p, ent, b, payload)
		}
		if err != nil {
			return i, err
		}
	}
	return len(payloads), nil
}

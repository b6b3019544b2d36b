package tools

import (
	"fmt"

	"bridge/internal/lfs"
	"bridge/internal/msg"
)

// Every tool moves a node's column through this file, in runs; no other file
// of the package reads or writes file blocks (TestOneColumnPath).

// runBlocks is the length of a run: one LFS round trip, one track read, or
// runBlocks+1 device accesses appended (block at a time: 2 per block). Lengths
// 4 / 8 / 16 / 32 measure 10.62 / 9.66 / 9.21 / 9.01 sim ms/op on
// tool_copy_sort; 8, one track, holds a node's LFS at most 135 ms per request,
// so a tool cannot starve a naive client of the same node.
const runBlocks = 8

// colReader reads one local file front to back, the address hint threaded
// from run to run. The request for the run after the one being consumed is
// always in flight: without it a merge reader's token stalls behind the
// co-located writer's run (merge phase 137 s, with it 98 s), and it costs the
// single-process loops nothing (local sort 75.2 s, with it 74.6 s).
type colReader struct {
	lc    *lfs.Client
	node  msg.NodeID
	file  uint32
	size  int64         // blocks in the file
	pos   int64         // the block next hands out
	asked int64         // the first block no request has asked for
	call  lfs.Call      // the request in flight, ID 0 for none
	run   []lfs.VecRead // the rest of the run being consumed; run[0] is block pos
}

func newColReader(lc *lfs.Client, node msg.NodeID, file uint32, size int64) *colReader {
	return &colReader{lc: lc, node: node, file: file, size: size}
}

// ask starts the request for the next run, if the file has one.
func (r *colReader) ask(hint int32) error {
	n := min(r.size-r.asked, runBlocks)
	if n <= 0 {
		return nil
	}
	req := lfs.ReadVecReq{FileID: r.file, Blocks: make([]uint32, n), Hint: hint}
	for i := range req.Blocks {
		req.Blocks[i] = uint32(r.asked) + uint32(i)
	}
	call, err := r.lc.Start(msg.Addr{Node: r.node, Port: lfs.PortName}, req, lfs.WireSize(req))
	if err != nil {
		return err
	}
	r.call, r.asked = call, r.asked+n
	return nil
}

// next returns the file's next raw block and its number; raw is nil at the
// end. A block that failed on the node fails here, with its number, when the
// caller reaches it: the blocks before it are handed out first.
func (r *colReader) next() (raw []byte, num int64, err error) {
	if r.pos >= r.size {
		return nil, r.pos, nil
	}
	if len(r.run) == 0 {
		if r.call.ID == 0 {
			if err := r.ask(-1); err != nil {
				return nil, r.pos, err
			}
		}
		call := r.call
		r.call = lfs.Call{}
		resp, err := lfs.Reply[lfs.ReadVecResp](r.lc.Await(call))
		if err != nil {
			return nil, r.pos, fmt.Errorf("run at block %d: %w", r.pos, err)
		}
		r.run = resp.Blocks
		if err := r.ask(r.run[len(r.run)-1].Addr); err != nil {
			return nil, r.pos, err
		}
	}
	b := r.run[0]
	if !b.OK() {
		return nil, r.pos, fmt.Errorf("block %d: %w", r.pos, lfs.Err(b.Status))
	}
	r.run = r.run[1:]
	r.pos++
	return b.Data, r.pos - 1, nil
}

// stop abandons the request in flight, if any. A reader that may return before
// the end of its file defers it, so the reply is dropped on receipt instead of
// parked forever in a client that lives on.
func (r *colReader) stop() {
	if r.call.ID != 0 {
		r.lc.Discard(r.call)
		r.call = lfs.Call{}
	}
}

// colWriter appends to one local file, a run per request.
type colWriter struct {
	lc   *lfs.Client
	node msg.NodeID
	file uint32
	at   uint32 // the block the next put lands on
	run  []lfs.VecWrite
}

// newColWriter writes file from its start: every tool output is a new file.
func newColWriter(lc *lfs.Client, node msg.NodeID, file uint32) *colWriter {
	return &colWriter{lc: lc, node: node, file: file}
}

// put appends one raw block; it reaches the node when the run fills or on
// flush, so a writer that fails leaves only whole earlier runs behind.
func (w *colWriter) put(raw []byte) error {
	w.run = append(w.run, lfs.VecWrite{BlockNum: w.at, Data: raw})
	w.at++
	if len(w.run) < runBlocks {
		return nil
	}
	return w.flush()
}

// flush writes out the partial run; a writer is done only after it.
func (w *colWriter) flush() error {
	if len(w.run) == 0 {
		return nil
	}
	res, err := w.lc.WriteVec(w.node, w.file, w.run, -1) // appends take no hint
	if err != nil {
		return fmt.Errorf("run at block %d: %w", w.run[0].BlockNum, err)
	}
	for i, b := range res {
		if !b.OK() {
			return fmt.Errorf("block %d: %w", w.run[i].BlockNum, lfs.Err(b.Status))
		}
	}
	w.run = w.run[:0]
	return nil
}

package tools

import (
	"fmt"

	"bridge/internal/disk"
	"bridge/internal/lfs"
	"bridge/internal/msg"
)

// Every tool moves a node's column through this file, in runs; no other file
// of the package reads or writes file blocks (TestOneColumnPath).

// RunBlocks is the length of a run: one LFS round trip, its blocks read a
// track at a time, or appended one device access per track the run touches
// plus one for the old tail's link (block at a time: 2 per block). Lengths
// 4 / 8 / 16 / 32 measure 6.68 / 5.33 / 4.77 / 4.53 sim ms/op on
// tool_copy_sort (seed 1988); 16, two tracks, touches at most three, so a
// request holds a node's LFS for at most four accesses, 60 ms on 15 ms disks
// (32: 90 ms, for 4.9 % more). A worker keeps at most two requests at its
// LFS, its reader's next run and its writer's run, so a naive client of the
// same node waits behind at most seven accesses and their CPU
// (TestToolRunBoundsNaiveQueueWait). internal/model reads it.
const RunBlocks = 2 * disk.DefaultBlocksPerTrack

// colReader reads one local file front to back on a stream, the address
// hint threaded from run to run.
type colReader struct {
	st   lfs.Stream[lfs.Call]
	node msg.NodeID
	file uint32
	size int64         // blocks in the file
	pos  int64         // the block next hands out
	run  []lfs.VecRead // the rest of the run being taken; run[0] is block pos
}

// colReadDepth is how many runs a reader keeps in flight past the one it hands
// out: one. Without it a merge reader's token stalls behind the co-located
// writer's run (tool_copy_sort's merge phase 101.2 s, with it 66.9 s), and
// the single-process loops gain a little (local sort 33.4 s, with it 31.7 s).
const colReadDepth = 1

func newColReader(lc *lfs.Client, node msg.NodeID, file uint32, size int64) *colReader {
	return &colReader{st: lfs.Stream[lfs.Call]{C: lc, Finish: (*lfs.Client).Await}, node: node, file: file, size: size}
}

// next returns the file's next raw block and its number; raw is nil at the
// end. A block that failed on the node fails here, with its number, when the
// caller reaches it: the blocks before it are handed out first.
func (r *colReader) next() (raw []byte, num int64, err error) {
	if r.pos >= r.size {
		return nil, r.pos, nil
	}
	hint := int32(-1)
	for len(r.run) == 0 || r.st.Windows() < colReadDepth {
		if len(r.run) == 0 && r.st.Windows() > 0 {
			r.st.Take(func(_ lfs.Call, m *msg.Message, werr error) bool {
				var resp lfs.ReadVecResp
				resp, err = lfs.Reply[lfs.ReadVecResp](m, werr)
				r.run = resp.Blocks
				return true
			})
			if err != nil {
				return nil, r.pos, fmt.Errorf("run at block %d: %w", r.pos, err)
			}
			hint = r.run[len(r.run)-1].Addr
			continue
		}
		from := r.pos + int64(len(r.run)) // the run after those handed out or in flight
		if n := r.st.Windows(); n > 0 {
			at, count := r.st.Window(n - 1)
			from = at + int64(count)
		}
		n := min(r.size-from, RunBlocks)
		if n <= 0 {
			break
		}
		req := lfs.ReadVecReq{FileID: r.file, Blocks: make([]uint32, n), Hint: hint}
		for i := range req.Blocks {
			req.Blocks[i] = uint32(from) + uint32(i)
		}
		r.st.Open(from, int(n))
		if err := r.st.Start(r.st.C.Start(msg.Addr{Node: r.node, Port: lfs.PortName}, req)); err != nil {
			return nil, r.pos, err
		}
		hint = -1
	}
	b := r.run[0]
	if !b.OK() {
		return nil, r.pos, fmt.Errorf("block %d: %w", r.pos, lfs.Err(b.Status))
	}
	r.run = r.run[1:]
	r.pos++
	return b.Data, r.pos - 1, nil
}

// stop drops the runs in flight. A reader that may return before the end of
// its file defers it, so no reply is parked forever in a client that lives on.
func (r *colReader) stop() { r.st.Drop() }

// colWriter appends to one local file on a stream, a run per request.
type colWriter struct {
	st   lfs.Stream[lfs.Call]
	node msg.NodeID
	file uint32
	at   uint32 // the block the next put lands on
	run  []lfs.VecWrite
}

// colWriteDepth is how many runs a writer leaves in flight when put or flush
// returns: none, so a put that fails leaves only whole earlier runs behind
// (and a landed run's slice is the next run's). Depth 1, drained at the end,
// would take 1.1 s off tool_copy_sort's 109 s.
const colWriteDepth = 0

// newColWriter writes file from its start: every tool output is a new file.
func newColWriter(lc *lfs.Client, node msg.NodeID, file uint32) *colWriter {
	return &colWriter{st: lfs.Stream[lfs.Call]{C: lc, Finish: (*lfs.Client).Await}, node: node, file: file}
}

// put appends one raw block; it reaches the node when the run fills or on flush.
func (w *colWriter) put(raw []byte) error {
	w.run = append(w.run, lfs.VecWrite{BlockNum: w.at, Data: raw})
	w.at++
	if len(w.run) < RunBlocks {
		return nil
	}
	return w.flush()
}

// flush writes out the partial run, and lands runs until at most
// colWriteDepth are in flight; a writer is done only after it.
func (w *colWriter) flush() error {
	if len(w.run) == 0 {
		return nil
	}
	req := lfs.WriteVecReq{FileID: w.file, Blocks: w.run, Hint: -1} // appends take no hint
	w.st.Open(int64(w.run[0].BlockNum), len(w.run))
	if err := w.st.Start(w.st.C.Start(msg.Addr{Node: w.node, Port: lfs.PortName}, req)); err != nil {
		return fmt.Errorf("run at block %d: %w", w.run[0].BlockNum, err)
	}
	var err error
	for err == nil && w.st.Windows() > colWriteDepth {
		at, _ := w.st.Window(0)
		w.st.Take(func(_ lfs.Call, m *msg.Message, werr error) bool {
			resp, rerr := lfs.Reply[lfs.WriteVecResp](m, werr)
			if rerr != nil {
				err = fmt.Errorf("run at block %d: %w", at, rerr)
			}
			for i, b := range resp.Blocks {
				if err == nil && !b.OK() {
					err = fmt.Errorf("block %d: %w", at+int64(i), lfs.Err(b.Status))
				}
			}
			return true
		})
	}
	if err != nil {
		return err
	}
	w.run = w.run[:0]
	return nil
}

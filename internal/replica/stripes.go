// The one redundancy mechanism behind Mirror, Parity and RS: a data file
// plus m column files, column j holding row k+j of a systematic (k+m)×k
// encoding matrix applied to each stripe of k data cells. The schemes
// differ only in the matrix (Mirror: k = 1 and the row [1], a copy;
// Parity: a row of ones, XOR; RS: m Reed–Solomon rows), the cell size,
// where their constructors place the files, and the names of their metrics.
// Every rule below applies to every constituent file of every scheme.
//
// Every multi-block step is one core.Client.Scatter, so the cells of a
// stripe, each on its own node, move side by side.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"bridge/internal/core"
	"bridge/internal/distrib"
)

// stripes is the state behind a Mirror, Parity or RS handle. The handle
// caches the data block count so that degraded operation never needs a size
// refresh (which would contact the failed node).
type stripes struct {
	c      *core.Client
	name   string   // the data file
	cols   []string // the column files, column j made by enc[k+j]
	enc    [][]byte // (k+m)×k systematic encoding matrix
	k      int
	cell   int   // bytes per cell: appends supply exactly this many, or with k = 1 at most this many
	blocks int64 // cached data block count
	// gaps[0] is the data file's degraded-write state, gaps[1+j] column j's.
	gaps []gap
	// dirty marks stripes whose column cells may not match their data;
	// Rebuild recomputes them.
	dirty map[int64]bool
	// acc[j] is what column j holds for the open stripe (the one block
	// `blocks` falls in) when every append so far has reached it, so an
	// append computes its column cells without reading any back. acc[j] is
	// nil when that is not known; seeded says acc describes the open stripe
	// at all (a handle opened mid-stripe reads the cells once). next is the
	// spare an append computes into; the two swap when it lands.
	acc, next [][]byte
	seeded    bool

	what string // "mirror", "parity" or "RS", for messages
	met  stripeMetrics
}

// gap is one constituent file's degraded-write state. While it is open the
// file's blocks from start on live in the overflow file, in order from its
// block 1; block 0 records start, so that a handle opened later finds the
// gap (see open).
type gap struct {
	file  string
	start int64 // first block diverted to the overflow; -1 = none
	ovf   string
	n     int64 // blocks diverted to the overflow
}

// newStripes is a handle on data file name and columns cols, coded by enc.
func newStripes(c *core.Client, name string, cols []string, enc [][]byte, cell int, what string) stripes {
	gaps := []gap{{file: name, start: -1}}
	for _, col := range cols {
		gaps = append(gaps, gap{file: col, start: -1})
	}
	return stripes{
		c: c, name: name, cols: cols, enc: enc, k: len(enc) - len(cols), cell: cell,
		gaps: gaps, what: what, met: newMetrics(c.Msg().Net().Stats().Registry(), what),
	}
}

// open opens every constituent file, reopens the gap of any that has an
// overflow file, and sets the block count from the data file's length. It
// returns each file's length, its overflow included.
func (st *stripes) open() ([]int64, error) {
	lens := make([]int64, len(st.gaps))
	for f := range st.gaps {
		g := &st.gaps[f]
		meta, err := st.c.Open(g.file)
		if err != nil {
			return nil, fmt.Errorf("replica: opening %s: %w", g.file, err)
		}
		lens[f] = meta.Blocks
		ovf, err := st.c.Open(g.file + ".ovf")
		var hdr []byte
		if err == nil {
			hdr, err = st.c.ReadAt(ovf.Name, 0)
		}
		switch {
		case errors.Is(err, core.ErrNotFound):
			continue
		case err != nil:
			return nil, fmt.Errorf("replica: opening the overflow of %s: %w", g.file, err)
		}
		start, _ := binary.Varint(hdr)
		*g = gap{file: g.file, start: start, ovf: ovf.Name, n: ovf.Blocks - 1}
		lens[f] = start + g.n
	}
	st.blocks = lens[0]
	return lens, nil
}

// Blocks returns the number of data blocks.
func (st *stripes) Blocks() int64 { return st.blocks }

// Degraded reports whether any file has an open gap or any stripe is stale.
func (st *stripes) Degraded() bool {
	for _, g := range st.gaps {
		if g.start >= 0 {
			return true
		}
	}
	return len(st.dirty) > 0
}

// locate maps block b of the gap's file to the file and block that hold it:
// from an open gap on, the overflow.
func (g *gap) locate(b int64) (string, int64) {
	if g.start >= 0 && b >= g.start {
		return g.ovf, b - g.start + 1
	}
	return g.file, b
}

// item is a read of block b of constituent file f, wherever it lives.
func (st *stripes) item(f int, b int64) core.ScatterItem {
	name, at := st.gaps[f].locate(b)
	return core.ScatterItem{Name: name, BlockNum: at}
}

// divert opens a gap in constituent file f at block b: that block and every
// later one go to the file's overflow, created now on the nodes the
// server's health monitor does not hold Dead. Only the monitor's
// ErrNodeDown diverts a write, so without health monitoring no gap opens.
func (st *stripes) divert(f int, b int64, cause error) error {
	states, err := st.c.Health()
	if err != nil {
		return fmt.Errorf("replica: querying health: %w", err)
	}
	var subset []int
	for i, s := range states {
		if s.State != core.Dead {
			subset = append(subset, i)
		}
	}
	if len(subset) == 0 {
		return fmt.Errorf("replica: no healthy nodes for overflow")
	}
	g := &st.gaps[f]
	name := g.file + ".ovf"
	if _, err := st.c.CreateSubset(name, distrib.Spec{Kind: distrib.RoundRobin, P: len(subset)}, subset); err != nil {
		return fmt.Errorf("replica: creating overflow file: %w", err)
	}
	if err := st.c.WriteAt(name, 0, binary.AppendVarint(nil, b)); err != nil {
		st.c.Delete(name) // best effort: a later divert creates it again
		return fmt.Errorf("replica: writing overflow header: %w", err)
	}
	g.start, g.ovf = b, name
	st.met.diverts.Add(1)
	emit(st.c, "replica.degrade", "%s gap opens at block %d (%v)", g.file, b, cause)
	return nil
}

// seed makes acc describe the open stripe: zeros at a stripe's first cell,
// otherwise the m column cells as one scatter read. A cell that cannot be
// read stays unknown until the next stripe opens.
func (st *stripes) seed(stripe int64, first bool) {
	st.seeded = true
	if st.acc == nil {
		m := len(st.cols)
		bufs := make([][]byte, 2*m)
		st.acc, st.next = bufs[:m:m], bufs[m:]
	}
	clear(st.acc)
	if first {
		return
	}
	items := make([]core.ScatterItem, len(st.cols))
	for j := range st.cols {
		items[j] = st.item(1+j, stripe)
	}
	res, err := st.c.Scatter(items)
	if err != nil {
		return
	}
	for j := range st.cols {
		if data, err := res.At(j); err == nil {
			st.acc[j] = data
		}
	}
}

// Append writes the payload as the next data block together with the m
// column cells of its stripe, as one scatter. Nothing is read back: the
// cells come from the handle's accumulators. Each file's write follows the
// same rules:
//   - one that fails with ErrNodeDown, rejected at admission or abandoned
//     in flight, opens a gap in its file (see divert) and goes out again;
//   - a column write that fails for any other reason leaves the stripe
//     stale, and the append returns ErrDegradedWrite once the data is in;
//     with k = 1 it is the only write its column block gets, and a hole
//     there would bar every later write, so it fails the append instead;
//   - a data write that fails for any other reason fails the append, with
//     the stripe marked stale if a column cell may have landed.
//
// Every write is positional, so a failed append can be retried as is; one
// that writes its stripe's every column cell clears the stale mark.
func (st *stripes) Append(payload []byte) error {
	if len(payload) != st.cell && (st.k > 1 || len(payload) > st.cell) {
		return fmt.Errorf("replica: %s takes %d-byte payloads, got %d", st.what, st.cell, len(payload))
	}
	n := st.blocks
	stripe, cell := n/int64(st.k), int(n%int64(st.k))
	if cell == 0 || !st.seeded {
		st.seed(stripe, cell == 0)
	}
	// next[j] is column j's cell once this block is in: acc[j] + enc·payload.
	m, size := len(st.cols), len(payload)
	next := st.next
	var buf []byte
	var degraded error
	for j := range next {
		next[j] = nil
		switch coef := st.enc[st.k+j][cell]; {
		case cell > 0 && st.acc[j] == nil:
			degraded = errors.Join(degraded, fmt.Errorf("column %d of the open stripe is unknown", j))
		case st.k == 1 && coef == 1:
			next[j] = payload // a one-cell stripe's copy is the payload itself
		default:
			if buf == nil {
				buf = make([]byte, m*size)
			}
			next[j] = buf[j*size : (j+1)*size]
			copy(next[j], st.acc[j])
			gfMulAdd(next[j], payload, coef)
		}
	}
	// done[f] says file f needs no further write: its cell landed or was
	// given up. A write that cannot start has the server reject every write
	// of the scatter (ErrSkipped), so a round that diverts a file or gives
	// one up sends the rest again.
	done := append(make([]bool, 0, 8), make([]bool, 1+m)...)
	for j, data := range next {
		done[1+j] = data == nil
	}
	at := [2]int64{n, stripe} // the block the data file, and each column, writes
	items := make([]core.ScatterItem, 0, 1+m)
	landed, touched := 0, false // column cells that landed; whether one may have
	for slices.Contains(done, false) {
		items, cols := items[:0], 0
		for f, d := range done {
			if d {
				continue
			}
			it := st.item(f, at[min(f, 1)])
			it.Write, it.Data = true, payload
			if f > 0 {
				it.Data = next[f-1]
				cols++
			}
			items = append(items, it)
		}
		res, err := st.c.Scatter(items)
		if err != nil {
			st.markStale(stripe, err)
			return fmt.Errorf("replica: appending %s data: %w", st.what, err)
		}
		var dataErr, skipped error
		progress, i := false, 0
		for f := range done {
			if done[f] {
				continue
			}
			_, ierr := res.At(i)
			i++
			g := &st.gaps[f]
			if errors.Is(ierr, core.ErrNodeDown) && g.start < 0 {
				if ierr = st.divert(f, at[min(f, 1)], ierr); ierr == nil {
					progress = true
					continue
				}
			}
			switch {
			case ierr == nil:
				done[f], progress = true, true
				if f > 0 {
					landed++
				}
				if k := at[min(f, 1)] - g.start; g.start >= 0 && k >= g.n {
					g.n = k + 1
					st.met.overflowBlocks.Add(1)
				}
			case errors.Is(ierr, core.ErrSkipped):
				skipped = ierr
			case f == 0 || st.k == 1:
				dataErr = fmt.Errorf("writing %s: %w", items[i-1].Name, ierr)
			default:
				done[f], progress = true, true
				degraded = errors.Join(degraded, fmt.Errorf("writing %s: %w", items[i-1].Name, ierr))
			}
		}
		// Unless the server rejected the scatter before anything started,
		// every column cell it carried may have landed.
		touched = touched || skipped == nil && cols > 0
		if dataErr != nil {
			if touched {
				st.markStale(stripe, dataErr)
			}
			return fmt.Errorf("replica: appending %s: %w", st.what, dataErr)
		}
		if !progress {
			return fmt.Errorf("replica: appending %s: %w", st.what, skipped)
		}
	}
	st.met.parityWrites.Add(int64(landed))
	st.blocks++
	st.acc, st.next = next, st.acc
	if degraded == nil {
		delete(st.dirty, stripe)
		return nil
	}
	st.markStale(stripe, degraded)
	st.met.degradedWrites.Add(1)
	return fmt.Errorf("%w: %s stripe %d: %v", ErrDegradedWrite, st.what, stripe, degraded)
}

// markStale records that the stripe's column cells may not match its data;
// every other stripe keeps its redundancy.
func (st *stripes) markStale(stripe int64, cause error) {
	if st.dirty == nil {
		st.dirty = make(map[int64]bool)
	}
	st.dirty[stripe] = true
	emit(st.c, "replica.degrade", "%s %s stripe %d stale (%v)", st.name, st.what, stripe, cause)
}

// inRange answers a block outside [0, Blocks()) before any request is sent.
func (st *stripes) inRange(n int64) error {
	if n < 0 || n >= st.blocks {
		return fmt.Errorf("%w: %s block %d of %d", core.ErrEOF, st.what, n, st.blocks)
	}
	return nil
}

// Read returns data block n, reconstructing it from the rest of its stripe
// if it is unreachable. When the block failed its checksum (rather than its
// node being down), the reconstruction is written back over the bad block —
// read-repair — before it is returned.
func (st *stripes) Read(n int64) ([]byte, error) {
	if err := st.inRange(n); err != nil {
		return nil, err
	}
	name, at := st.gaps[0].locate(n)
	data, err := st.c.ReadAt(name, at)
	if err == nil {
		return data, nil
	}
	rec, rerr := st.Reconstruct(n)
	if rerr != nil {
		return nil, rerr
	}
	if errors.Is(err, core.ErrCorrupt) {
		// Failure is not fatal to the read — the block stays corrupt on
		// disk and the scrubber or the next read retries.
		if werr := st.c.WriteAt(name, at, rec); werr != nil {
			emit(st.c, "replica.readrepair", "%s block %d repair failed: %v", st.name, n, werr)
		} else {
			st.met.readRepairs.Add(1)
			st.met.readRepairBlocks.Add(1)
			emit(st.c, "replica.readrepair", "%s block %d rewritten from %s reconstruction (%v)", st.name, n, st.what, err)
		}
	}
	return rec, nil
}

// Reconstruct rebuilds data block n from any k readable cells of its stripe
// (sibling data blocks count as unit-vector rows, column cells as their
// encoding rows; cells past EOF are known zeros), without touching the
// block itself. The siblings and the first column cell travel as one
// scatter; further column cells follow in a second only to stand in for
// siblings that failed too. The result is as long as the longest cell read.
func (st *stripes) Reconstruct(n int64) ([]byte, error) {
	if err := st.inRange(n); err != nil {
		return nil, err
	}
	k, m := st.k, len(st.cols)
	stripe := n / int64(k)
	if st.dirty[stripe] {
		return nil, fmt.Errorf("%w: %s stripe %d is stale", ErrTooManyFailures, st.what, stripe)
	}
	// from[i] is the encoding row of items[i].
	rows, vals, from := make([][]byte, 0, 8), make([][]byte, 0, 8), make([][]byte, 0, 8)
	items := make([]core.ScatterItem, 0, k)
	for i := 0; i < k; i++ {
		switch g := stripe*int64(k) + int64(i); {
		case g == n:
		case g >= st.blocks:
			rows, vals = append(rows, st.enc[i]), append(vals, nil)
		default:
			items, from = append(items, st.item(0, g)), append(from, st.enc[i])
		}
	}
	var firstErr error
	for col := 0; len(rows) < k; {
		for ; col < m && len(rows)+len(items) < k; col++ {
			items, from = append(items, st.item(1+col, stripe)), append(from, st.enc[k+col])
		}
		if len(items) == 0 {
			return nil, fmt.Errorf("%w: %d of %d cells readable (%v)", ErrTooManyFailures, len(rows), k, firstErr)
		}
		res, err := st.c.Scatter(items)
		for i := range items {
			data, ierr := res.At(i)
			if err != nil {
				ierr = err
			}
			if ierr != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s block %d: %v", items[i].Name, items[i].BlockNum, ierr)
				}
				continue
			}
			rows, vals = append(rows, from[i]), append(vals, data[:min(len(data), st.cell)])
		}
		items, from = items[:0], from[:0]
	}
	st.met.reconstructions.Add(1)
	if k == 1 && rows[0][0] == 1 {
		return vals[0], nil // the cell read is a copy of the block
	}
	inv, err := gfMatInv(rows)
	if err != nil {
		// Any k rows of the encoding matrix are invertible by construction.
		return nil, fmt.Errorf("replica: %s decode matrix: %w", st.what, err)
	}
	out := make([]byte, longest(vals))
	for r, coef := range inv[n%int64(k)] {
		gfMulAdd(out, vals[r], coef)
	}
	return out, nil
}

// longest returns the length of the longest cell.
func longest(cells [][]byte) int {
	size := 0
	for _, c := range cells {
		size = max(size, len(c))
	}
	return size
}

// Rebuild restores full redundancy after failed nodes have been restarted
// and core.Client.RepairNode has re-registered their files. Stripe by
// stripe, in ascending order (which keeps every node's local writes
// sequential), it reads the stripe's k+m cells in one scatter, reconstructs
// and rewrites each unreadable data block, and recomputes the stale or
// unreadable column cells from the data in hand as one scatter write. Then
// it folds each open gap's overflow back into its file, in order, and
// deletes the overflow. The file stays readable throughout. It returns the
// number of cells written.
func (st *stripes) Rebuild() (int64, error) {
	k, m := int64(st.k), len(st.cols)
	// A stripe that begins at or past end keeps every cell in an overflow.
	var end int64
	for f, g := range st.gaps {
		switch {
		case g.start < 0:
			end = st.blocks
		case f == 0:
			end = max(end, g.start)
		default:
			end = max(end, g.start*k)
		}
	}
	var repaired int64
	for s := int64(0); s*k < st.blocks; s++ {
		if s*k >= end && !st.dirty[s] {
			continue // fold reads it anyway
		}
		width := int(min(k, st.blocks-s*k))
		items := make([]core.ScatterItem, 0, width+m)
		for i := 0; i < width; i++ {
			items = append(items, st.item(0, s*k+int64(i)))
		}
		for j := range st.cols {
			items = append(items, st.item(1+j, s))
		}
		res, err := st.c.Scatter(items)
		if err != nil {
			return repaired, fmt.Errorf("replica: reading %s stripe %d: %w", st.what, s, err)
		}
		cells := make([][]byte, width)
		for i := range cells {
			b := s*k + int64(i)
			var rerr error
			if cells[i], rerr = res.At(i); rerr == nil {
				continue
			}
			if cells[i], err = st.Reconstruct(b); err != nil {
				return repaired, fmt.Errorf("replica: rebuilding %s data block %d: %w", st.what, b, err)
			}
			if err := st.c.WriteAt(items[i].Name, items[i].BlockNum, cells[i]); err != nil {
				return repaired, fmt.Errorf("replica: rewriting %s data block %d: %w", st.what, b, err)
			}
			repaired++
			st.met.rebuiltData.Add(1)
		}
		var fix []core.ScatterItem
		for j := range st.cols {
			if _, rerr := res.At(width + j); rerr == nil && !st.dirty[s] {
				continue
			}
			cell := make([]byte, longest(cells))
			for i, data := range cells {
				gfMulAdd(cell, data[:min(len(data), st.cell)], st.enc[st.k+j][i])
			}
			it := items[width+j]
			it.Write, it.Data = true, cell
			fix = append(fix, it)
		}
		if len(fix) > 0 {
			res, err := st.c.Scatter(fix)
			for i := range fix {
				if _, ierr := res.At(i); err != nil || ierr != nil {
					return repaired, fmt.Errorf("replica: rewriting %s stripe %d of %s: %w", st.what, s, fix[i].Name, errors.Join(err, ierr))
				}
			}
			repaired += int64(len(fix))
			st.met.rebuiltParity.Add(int64(len(fix)))
		}
		delete(st.dirty, s)
	}
	// Marks left are past the last block, with no data to disagree with.
	// The columns are authoritative again: the next append reads them.
	clear(st.dirty)
	st.seeded = false
	for f := range st.gaps {
		n, err := st.fold(f)
		repaired += n
		if err != nil {
			return repaired, err
		}
	}
	if repaired > 0 {
		emit(st.c, "replica.rebuild", "%s restored %d cells", st.name, repaired)
	}
	return repaired, nil
}

// fold closes constituent file f's gap: each overflow block is written back
// as the file's next sequential block, and the overflow file is deleted.
func (st *stripes) fold(f int) (int64, error) {
	g := &st.gaps[f]
	if g.start < 0 {
		return 0, nil
	}
	counter := st.met.rebuiltParity
	if f == 0 {
		counter = st.met.rebuiltData
	}
	for b := int64(0); b < g.n; b++ {
		data, err := st.c.ReadAt(g.ovf, b+1)
		if err != nil {
			return b, fmt.Errorf("replica: reading overflow block %d of %s: %w", b, g.file, err)
		}
		if err := st.c.WriteAt(g.file, g.start+b, data); err != nil {
			return b, fmt.Errorf("replica: restoring block %d of %s: %w", g.start+b, g.file, err)
		}
		counter.Add(1)
	}
	if _, err := st.c.Delete(g.ovf); err != nil {
		return g.n, fmt.Errorf("replica: deleting overflow file: %w", err)
	}
	emit(st.c, "replica.resilver", "%s gap [%d,%d) closed", g.file, g.start, g.start+g.n)
	n := g.n
	*g = gap{file: g.file, start: -1}
	return n, nil
}

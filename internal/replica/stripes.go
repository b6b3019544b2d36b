// The stripe I/O that Parity and RS share. Both are a data file interleaved
// across k nodes plus m single-node parity columns, column j holding row
// k+j of a systematic (k+m)×k encoding matrix applied to each stripe of k
// data cells; they differ only in the matrix (Parity: one row of ones, i.e.
// XOR; RS: m Reed–Solomon rows), the cell size, and the names their
// metrics and messages go by.
//
// Every multi-block step is one core.Client.Scatter, so the blocks of a
// stripe — each on a different node — move side by side: an append is the
// data block plus the m parity cells, a reconstruction the k cells it
// decodes from, a rebuild one read and at most one write per stripe.
package replica

import (
	"errors"
	"fmt"

	"bridge/internal/core"
	"bridge/internal/obs"
)

// stripes is the state behind a Parity or RS handle. The handle caches the
// data block count so that degraded operation never needs a size refresh
// (which would contact the failed node).
type stripes struct {
	c      *core.Client
	name   string   // the data file
	cols   []string // the parity column files, column j made by enc[k+j]
	enc    [][]byte // (k+m)×k systematic encoding matrix
	k      int
	cell   int   // bytes per cell; appends must supply exactly this many
	blocks int64 // cached data block count
	// dirty marks stripes with at least one stale parity cell — a parity
	// write that failed, or any write whose outcome is unknown; Rebuild
	// recomputes them.
	dirty map[int64]bool
	// acc[j] is what column j holds for the open stripe (the one block
	// `blocks` falls in) when every append so far has reached it, so an
	// append computes its parity cells without reading any back. acc[j] is
	// nil when that is not known; seeded says acc describes the open stripe
	// at all (a handle opened mid-stripe reads the cells once).
	acc    [][]byte
	seeded bool

	what string // "parity" or "RS", for messages
	met  stripeMetrics
}

// stripeMetrics are the counters a scheme's stripe I/O reports into.
type stripeMetrics struct {
	parityWrites     obs.Counter
	degradedWrites   obs.Counter
	reconstructions  obs.Counter
	readRepairs      obs.Counter
	readRepairBlocks obs.Counter
	rebuiltData      obs.Counter
	rebuiltParity    obs.Counter
}

// Blocks returns the number of data blocks.
func (st *stripes) Blocks() int64 { return st.blocks }

// Degraded reports whether any stripe's parity is stale.
func (st *stripes) Degraded() bool { return len(st.dirty) > 0 }

// seed makes acc describe the open stripe: zeros at a stripe's first cell,
// otherwise the m parity cells as one scatter read. A cell that cannot be
// read stays unknown until the next stripe opens.
func (st *stripes) seed(stripe int64, first bool) {
	st.seeded = true
	if st.acc == nil {
		st.acc = make([][]byte, len(st.cols))
	}
	clear(st.acc)
	if first {
		return
	}
	items := make([]core.ScatterItem, len(st.cols))
	for j, col := range st.cols {
		items[j] = core.ScatterItem{Name: col, BlockNum: stripe}
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
// parity cells of its stripe, as one scatter. Nothing is read back: the
// cells come from the handle's accumulators. If the data block cannot be
// written the append fails — with parity untouched when its node was
// already known dead, with the stripe marked stale when the outcome is
// unknown. If the data block lands and a parity cell does not, the write
// still counts: the stripe is marked stale and ErrDegradedWrite tells the
// caller redundancy is reduced until Rebuild.
func (st *stripes) Append(payload []byte) error {
	if len(payload) != st.cell {
		return fmt.Errorf("replica: %s requires %d-byte payloads, got %d", st.what, st.cell, len(payload))
	}
	n := st.blocks
	stripe, cell := n/int64(st.k), int(n%int64(st.k))
	if cell == 0 || !st.seeded {
		st.seed(stripe, cell == 0)
	}
	// next[j] is column j's cell once this block is in: acc[j] + enc·payload.
	m := len(st.cols)
	next := make([][]byte, m)
	buf := make([]byte, m*st.cell)
	var degraded error
	for j := range next {
		if cell > 0 && st.acc[j] == nil {
			degraded = errors.Join(degraded, fmt.Errorf("parity %d of the open stripe is unknown", j))
			continue
		}
		next[j] = buf[j*st.cell : (j+1)*st.cell]
		copy(next[j], st.acc[j])
		gfMulAdd(next[j], payload, st.enc[st.k+j][cell])
	}
	// A parity cell whose write cannot start (its node is known dead) has
	// the server reject the whole scatter before anything starts; send
	// again without that column, which is what a degraded append is.
	var dropped []bool
	for {
		items := make([]core.ScatterItem, 1, 1+m)
		items[0] = core.ScatterItem{Name: st.name, BlockNum: n, Write: true, Data: payload}
		for j, data := range next {
			if data != nil && (dropped == nil || !dropped[j]) {
				items = append(items, core.ScatterItem{Name: st.cols[j], BlockNum: stripe, Write: true, Data: data})
			}
		}
		res, err := st.c.Scatter(items)
		if err != nil {
			st.markStale(stripe, err)
			return fmt.Errorf("replica: appending %s data: %w", st.what, err)
		}
		_, dataErr := res.At(0)
		rejected := errors.Is(dataErr, core.ErrSkipped)
		landed, failed := 0, 0
		for i := 1; i < len(items); i++ {
			_, err := res.At(i)
			switch {
			case err == nil:
				landed++
			case errors.Is(err, core.ErrSkipped):
				rejected = true
			default:
				failed++
				if dropped == nil {
					dropped = make([]bool, m)
				}
				for j, col := range st.cols {
					dropped[j] = dropped[j] || col == items[i].Name
				}
				degraded = errors.Join(degraded, fmt.Errorf("writing %s: %w", items[i].Name, err))
			}
		}
		if errors.Is(dataErr, core.ErrSkipped) && failed > 0 {
			continue
		}
		if dataErr != nil {
			// Unless the server rejected the scatter before anything
			// started, parity cells may have landed beside a data block
			// that did not, or may not have.
			if !rejected && landed+failed > 0 {
				st.markStale(stripe, dataErr)
			}
			return fmt.Errorf("replica: appending %s data: %w", st.what, dataErr)
		}
		st.met.parityWrites.Add(int64(landed))
		break
	}
	st.blocks++
	st.acc = next
	if degraded != nil {
		st.markStale(stripe, degraded)
		st.met.degradedWrites.Add(1)
		return fmt.Errorf("%w: %s stripe %d: %v", ErrDegradedWrite, st.what, stripe, degraded)
	}
	return nil
}

// markStale records that the stripe's parity may not match its data. Only
// this stripe loses its redundancy; reconstruction of the others is
// unaffected.
func (st *stripes) markStale(stripe int64, cause error) {
	if st.dirty == nil {
		st.dirty = make(map[int64]bool)
	}
	st.dirty[stripe] = true
	emit(st.c, "replica.degrade", "%s %s stripe %d stale (%v)", st.name, st.what, stripe, cause)
}

// Read returns data block n, reconstructing it from the rest of its stripe
// if it is unreachable. When the block failed its checksum (rather than its
// node being down), the reconstruction is written back over the bad block —
// read-repair — before it is returned.
func (st *stripes) Read(n int64) ([]byte, error) {
	data, err := st.c.ReadAt(st.name, n)
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
		if werr := st.c.WriteAt(st.name, n, rec); werr != nil {
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
// (sibling data blocks count as unit-vector rows, parity cells as their
// encoding rows; cells past EOF are known zeros), without touching the
// block itself. The siblings and the first parity cell travel as one
// scatter; further parity cells are fetched, in a second, only to stand in
// for siblings that failed too.
func (st *stripes) Reconstruct(n int64) ([]byte, error) {
	if n < 0 || n >= st.blocks {
		return nil, fmt.Errorf("replica: block %d out of range", n)
	}
	k, m := st.k, len(st.cols)
	stripe := n / int64(k)
	if st.dirty[stripe] {
		return nil, fmt.Errorf("%w: %s stripe %d is stale", ErrTooManyFailures, st.what, stripe)
	}
	rows := make([][]byte, 0, k)
	vals := make([][]byte, 0, k)
	items := make([]core.ScatterItem, 0, k)
	from := make([][]byte, 0, k) // from[i] is the encoding row of items[i]
	for i := 0; i < k; i++ {
		switch g := stripe*int64(k) + int64(i); {
		case g == n:
		case g >= st.blocks:
			rows, vals = append(rows, st.enc[i]), append(vals, nil)
		default:
			items, from = append(items, core.ScatterItem{Name: st.name, BlockNum: g}), append(from, st.enc[i])
		}
	}
	var firstErr error
	for col := 0; len(rows) < k; {
		for ; col < m && len(rows)+len(items) < k; col++ {
			items, from = append(items, core.ScatterItem{Name: st.cols[col], BlockNum: stripe}), append(from, st.enc[k+col])
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
	inv, err := gfMatInv(rows)
	if err != nil {
		// Any k rows of the encoding matrix are invertible by construction.
		return nil, fmt.Errorf("replica: %s decode matrix: %w", st.what, err)
	}
	out := make([]byte, st.cell)
	for r, coef := range inv[n%int64(k)] {
		gfMulAdd(out, vals[r], coef)
	}
	st.met.reconstructions.Add(1)
	return out, nil
}

// Rebuild restores full redundancy after failed nodes have been restarted
// and core.Client.RepairNode has re-registered their files. Stripe by
// stripe, in ascending order (which keeps every node's local writes
// sequential), it reads the stripe's k+m cells in one scatter, reconstructs
// and rewrites each unreadable data block, and recomputes the stale or
// unreadable parity cells from the data in hand as one scatter write. The
// file stays readable throughout. It returns the number of cells written.
func (st *stripes) Rebuild() (int64, error) {
	k, m := int64(st.k), len(st.cols)
	var repaired int64
	for s := int64(0); s*k < st.blocks; s++ {
		width := int(min(k, st.blocks-s*k))
		items := make([]core.ScatterItem, 0, width+m)
		for i := 0; i < width; i++ {
			items = append(items, core.ScatterItem{Name: st.name, BlockNum: s*k + int64(i)})
		}
		for _, col := range st.cols {
			items = append(items, core.ScatterItem{Name: col, BlockNum: s})
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
			if err := st.c.WriteAt(st.name, b, cells[i]); err != nil {
				return repaired, fmt.Errorf("replica: rewriting %s data block %d: %w", st.what, b, err)
			}
			repaired++
			st.met.rebuiltData.Add(1)
		}
		var fix []core.ScatterItem
		for j, col := range st.cols {
			if _, rerr := res.At(width + j); rerr == nil && !st.dirty[s] {
				continue
			}
			cell := make([]byte, st.cell)
			for i, data := range cells {
				gfMulAdd(cell, data[:min(len(data), st.cell)], st.enc[st.k+j][i])
			}
			fix = append(fix, core.ScatterItem{Name: col, BlockNum: s, Write: true, Data: cell})
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
	// What marks remain are on stripes past the last block, which hold no
	// data to disagree with. The columns are authoritative again: the next
	// append reads them.
	clear(st.dirty)
	st.seeded = false
	if repaired > 0 {
		emit(st.c, "replica.rebuild", "%s restored %d cells", st.name, repaired)
	}
	return repaired, nil
}

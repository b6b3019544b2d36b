// Package efs is a fixture standing in for the real extent file system:
// its import path ends in internal/efs, so the journalorder analyzer
// applies. It models the group-commit shapes the analyzer must prove or
// refute: held-tail release, journal append, Sync barrier, home-write
// apply, epoch bump.
package efs

type proc struct{}

type disk struct{ blocks [][]byte }

func (d *disk) WriteBlock(p proc, addr int, b []byte) { d.blocks[addr] = b }
func (d *disk) Sync(p proc)                           {}

// WriteRun writes consecutive blocks from addr with one access.
func (d *disk) WriteRun(p proc, addr int, bs [][]byte) { copy(d.blocks[addr:], bs) }

// homeWrite is a deferred in-place write recorded by the journal.
type homeWrite struct {
	addr uint32
	buf  []byte
}

type journal struct {
	cursor uint32
	epoch  uint32
}

type fsys struct {
	d   *disk
	jnl *journal
}

func encode(w homeWrite) []byte { return w.buf }

// writeHeld writes the uncommitted tails held in memory: the commit about
// to run names them files' last blocks, so its barrier must cover them.
func (fs *fsys) writeHeld(p proc) {}

// The correct group commit: release the held tails, append intent
// records, harden them, then apply the home writes.
func (fs *fsys) commitGood(p proc, writes []homeWrite) {
	fs.writeHeld(p)
	for i, w := range writes {
		fs.d.WriteBlock(p, int(fs.jnl.cursor)+i, encode(w))
	}
	fs.d.Sync(p)
	for _, w := range writes {
		fs.d.WriteBlock(p, int(w.addr), w.buf)
	}
}

// Applying home writes with the barrier missing: a crash between append
// and apply leaves a half-applied extent with no redo record on disk.
func (fs *fsys) commitNoBarrier(p proc, writes []homeWrite) {
	fs.writeHeld(p)
	for i, w := range writes {
		fs.d.WriteBlock(p, int(fs.jnl.cursor)+i, encode(w))
	}
	for _, w := range writes {
		fs.d.WriteBlock(p, int(w.addr), w.buf) // want `home write applied before the journal barrier`
	}
}

// A deferred home write landed through a write run is a home write all
// the same: before the barrier it is flagged like a WriteBlock.
func (fs *fsys) commitRunNoBarrier(p proc, writes []homeWrite) {
	fs.writeHeld(p)
	for i, w := range writes {
		fs.d.WriteRun(p, int(fs.jnl.cursor)+i, [][]byte{encode(w)})
	}
	for _, w := range writes {
		fs.d.WriteRun(p, int(w.addr), [][]byte{w.buf}) // want `home write applied before the journal barrier: this WriteRun`
	}
	fs.d.Sync(p)
}

// The same run after the barrier is the correct apply.
func (fs *fsys) commitRunGood(p proc, writes []homeWrite) {
	fs.writeHeld(p)
	for i, w := range writes {
		fs.d.WriteRun(p, int(fs.jnl.cursor)+i, [][]byte{encode(w)})
	}
	fs.d.Sync(p)
	for _, w := range writes {
		fs.d.WriteRun(p, int(w.addr), [][]byte{w.buf})
	}
}

// The barrier present on only one branch is a barrier missing: the must
// analysis intersects paths.
func (fs *fsys) commitBranch(p proc, writes []homeWrite, fast bool) {
	fs.writeHeld(p)
	for i, w := range writes {
		fs.d.WriteBlock(p, int(fs.jnl.cursor)+i, encode(w))
	}
	if !fast {
		fs.d.Sync(p)
	}
	for _, w := range writes {
		fs.d.WriteBlock(p, int(w.addr), w.buf) // want `home write applied before the journal barrier`
	}
}

// Held tails released after the barrier: the durable commit names a
// file's last block that a crash before the release loses.
func (fs *fsys) commitHeldAfterBarrier(p proc, writes []homeWrite) {
	for i, w := range writes {
		fs.d.WriteBlock(p, int(fs.jnl.cursor)+i, encode(w))
	}
	fs.d.Sync(p)    // want `journal barrier reached without releasing held tails`
	fs.writeHeld(p) // want `held tails released after the journal barrier`
	for _, w := range writes {
		fs.d.WriteBlock(p, int(w.addr), w.buf)
	}
}

// Released on one branch only: the barrier is reached on the other path
// with the tails still held.
func (fs *fsys) commitHeldOnOneBranch(p proc, writes []homeWrite, some bool) {
	if some {
		fs.writeHeld(p)
	}
	for i, w := range writes {
		fs.d.WriteBlock(p, int(fs.jnl.cursor)+i, encode(w))
	}
	fs.d.Sync(p) // want `journal barrier reached without releasing held tails`
	for _, w := range writes {
		fs.d.WriteBlock(p, int(w.addr), w.buf)
	}
}

// A release inside a loop that also issues the barrier runs after it on
// the second pass.
func (fs *fsys) commitHeldInLoop(p proc, groups [][]homeWrite) {
	for _, writes := range groups {
		fs.writeHeld(p) // want `held tails released after the journal barrier`
		for i, w := range writes {
			fs.d.WriteBlock(p, int(fs.jnl.cursor)+i, encode(w))
		}
		fs.d.Sync(p)
		for _, w := range writes {
			fs.d.WriteBlock(p, int(w.addr), w.buf)
		}
	}
}

// Home writes applied without any intent records at all.
func (fs *fsys) applyOnly(p proc, writes []homeWrite) {
	fs.d.Sync(p)
	for _, w := range writes {
		fs.d.WriteBlock(p, int(w.addr), w.buf) // want `without appending journal records`
	}
}

// A checkpoint must Sync the applied home writes before invalidating the
// intent records that guard them.
func (fs *fsys) checkpointBad(p proc) {
	fs.jnl.epoch++ // want `journal epoch bumped before`
	fs.d.Sync(p)
}

func (fs *fsys) checkpointGood(p proc) {
	fs.d.Sync(p)
	fs.jnl.epoch++
	fs.d.Sync(p)
}

// Mount-time initialization assigns the replayed epoch: an assignment is
// not an invalidation and needs no barrier.
func (fs *fsys) mount(epoch uint32) {
	fs.jnl.epoch = epoch
}

// Recovery replay reapplies from records already proven durable; the
// escape hatch documents why no in-function barrier exists.
func (fs *fsys) replayApply(p proc, w homeWrite) {
	//bridgevet:allow journalorder — recovery replay reapplies from already-durable journal records
	fs.d.WriteBlock(p, int(w.addr), w.buf)
}

// Package disk simulates block storage devices. Like the original Bridge
// prototype — which kept 64 MB of "disk" in Butterfly RAM and slept 15 ms
// per access to approximate a CDC Wren-class drive — a Disk stores blocks in
// memory and charges simulated time to the accessing process through a
// pluggable timing model.
//
// A Disk additionally models track locality: ReadTrack transfers every
// block of a track for a single access charge, which is what makes the
// EFS full-track read-ahead buffer (and the paper's 9 ms average
// sequential-read time, well under the 15 ms device latency) possible.
// WriteRun is its write twin: a run of consecutive blocks on one track is
// written for one access charge, and WriteBlock is a run of one.
package disk

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bridge/internal/obs"
	"bridge/internal/sim"
	"bridge/internal/stats"
)

// Errors returned by disk operations.
var (
	ErrOutOfRange = errors.New("disk: block number out of range")
	ErrBadSize    = errors.New("disk: data size does not match block size")
	ErrFailed     = errors.New("disk: device failed")
	ErrOffTrack   = errors.New("disk: write run leaves its track")
)

// FaultHook is consulted before every access when installed with SetFault:
// it may inject an error (a transient or latent fault) and/or extra latency
// (a limping device). label identifies the device; implementations must be
// deterministic under the virtual clock.
type FaultHook interface {
	BeforeOp(now time.Duration, label string, op Op, bn int) (extra time.Duration, err error)
}

// LatentFaults is an optional extension of FaultHook for the faults that
// stay on the medium until the block is next written. A track read consults
// BeforeOp for the block it was called for only; it asks Latent about every
// other block it transfers, and leaves a latent block's bytes out, so a bad
// block cannot reach the caller through its neighbour's read. Latent must
// be deterministic and draw no randomness (a seeded schedule stays put);
// d.mu is held across the call, so it must not block.
type LatentFaults interface {
	Latent(label string, bn int) bool
}

// Corrupter is an optional extension of FaultHook for silent faults — the
// ones BeforeOp cannot express because the access *succeeds*. If the hook
// installed with SetFault also implements Corrupter, reads let it mutate the
// stored bytes in place (bit rot: wrong contents, no error) and writes let
// it redirect the destination block (a misdirected write: the data lands,
// sealed for the wrong address, somewhere else). Implementations must be
// deterministic under the virtual clock; d.mu is held across calls, so they
// must not block.
type Corrupter interface {
	// CorruptBlock may flip bits of the stored image of block bn; data is
	// the device's own buffer. Returns true if it mutated anything.
	CorruptBlock(now time.Duration, label string, bn int, data []byte) bool
	// RedirectWrite returns the block number the write should actually
	// land on; returning bn (or an out-of-range value) leaves it alone.
	RedirectWrite(now time.Duration, label string, bn int) int
}

// Op distinguishes access types for the timing model.
type Op uint8

const (
	OpRead Op = iota + 1
	OpWrite
)

// Config describes a device.
type Config struct {
	// BlockSize in bytes. Default 1024, matching the paper.
	BlockSize int
	// NumBlocks is the device capacity in blocks.
	NumBlocks int
	// BlocksPerTrack controls track granularity for ReadTrack, WriteRun
	// and seek-distance computation. Default 8.
	BlocksPerTrack int
	// Timing is the access-time model. Default: FixedTiming{15ms}, the
	// paper's Wren-class approximation.
	Timing TimingModel
	// WriteBack enables a volatile write cache: a write buffers data
	// and only Sync makes it stable. A Crash then loses everything after
	// the last sync barrier (minus whatever luck the crash hook grants),
	// exactly like kill -9 on a process with a dirty page cache. Off by
	// default: writes go straight to the stable medium, as before.
	WriteBack bool
	// SyncTime is the cost of a Sync barrier (cache flush plus, for
	// file-backed devices, the backing-file fsync). Default 5ms.
	SyncTime time.Duration
}

// The defaults of a device: the paper's 1 KB blocks on a CDC Wren-class
// drive, approximated as a fixed 15 ms per access.
const (
	DefaultBlockSize      = 1024
	DefaultBlocksPerTrack = 8
	DefaultLatency        = 15 * time.Millisecond
)

func (c *Config) applyDefaults() {
	if c.BlockSize == 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.BlocksPerTrack == 0 {
		c.BlocksPerTrack = DefaultBlocksPerTrack
	}
	if c.Timing == nil {
		c.Timing = FixedTiming{Latency: DefaultLatency}
	}
	if c.SyncTime == 0 {
		c.SyncTime = 5 * time.Millisecond
	}
}

// CrashOutcome describes how much of the volatile write cache survives a
// crash: the first Keep buffered writes (in write order) had already
// reached the medium, and if TornBytes > 0 the write after those landed
// only for its first TornBytes bytes — a torn write, the front of the new
// image spliced onto the back of the old one.
type CrashOutcome struct {
	Keep      int
	TornBytes int
}

// CrashHook decides the fate of unsynced writes when a device crashes;
// the fault injector implements it. pending lists the block numbers of
// the buffered writes, oldest first. Implementations must be
// deterministic under the virtual clock. With no hook installed a crash
// drops every unsynced write.
type CrashHook interface {
	OnCrash(now time.Duration, label string, pending []int) CrashOutcome
}

// Disk is one simulated device. Methods charge simulated time to the
// calling process; a Disk is safe for concurrent use but is normally owned
// by a single LFS process, as in the paper.
type Disk struct {
	cfg       Config
	stats     *stats.Counters
	fault     FaultHook    // nil = no fault injection
	corrupter Corrupter    // d.fault's Corrupter side, if it has one
	latent    LatentFaults // d.fault's LatentFaults side, if it has one
	label     string       // device name passed to the fault hook
	m         diskMetrics
	crash     CrashHook // nil = crashes drop every unsynced write
	mu        sync.Mutex
	rec       *obs.Recorder // nil = observability off
	node      int           // cluster node index for recorded spans
	trace     obs.TraceID   // current trace context, set by the owning LFS
	parent    obs.SpanID
	blocks    [][]byte // nil entry = never-written (zero) block
	zero      []byte   // the image ReadTrack hands out for a never-written block
	head      int      // last accessed block, for seek modeling
	failed    bool

	// Volatile write cache (WriteBack mode): buffered writes not yet
	// covered by a sync barrier, and their order of first durability
	// obligation (a rewrite moves a block to the back of the order). spare
	// holds the stable images a barrier displaced, device-owned buffers no
	// one else holds, for land to buffer the next writes in.
	pending      map[int][]byte
	pendingOrder []int
	spare        [][]byte

	// Durable backing store; nil for a RAM-only device. The stable blocks
	// array mirrors the store exactly: commit writes through to both.
	store *FileStore

	// Plain op tallies persisted into the backing store's header.
	nReads, nWrites, nSyncs uint64
}

// diskMetrics are the device's typed metric handles.
type diskMetrics struct {
	ops, blocks, reads, writes obs.Counter
	syncs                      obs.Counter
	faultErrors                obs.Counter
	busy                       obs.Timer
}

// New creates a device. It panics if NumBlocks is not positive, since that
// is a configuration bug.
func New(cfg Config) *Disk {
	cfg.applyDefaults()
	if cfg.NumBlocks <= 0 {
		panic("disk: NumBlocks must be positive")
	}
	st := stats.New()
	reg := st.Registry()
	return &Disk{
		cfg:     cfg,
		stats:   st,
		blocks:  make([][]byte, cfg.NumBlocks),
		zero:    make([]byte, cfg.BlockSize),
		pending: make(map[int][]byte),
		m: diskMetrics{
			ops:         reg.Counter("disk.ops", "ops", "device accesses charged"),
			blocks:      reg.Counter("disk.blocks", "blocks", "blocks transferred"),
			reads:       reg.Counter("disk.reads", "ops", "read accesses"),
			writes:      reg.Counter("disk.writes", "ops", "write accesses"),
			syncs:       reg.Counter("disk.syncs", "ops", "sync barriers (write-cache flushes)"),
			faultErrors: reg.Counter("disk.fault_errors", "ops", "accesses failed by the fault injector"),
			busy:        reg.Timer("disk.busy", "virtual time the device spent on accesses"),
		},
	}
}

// NewWithStore creates a device whose stable medium is a durable file
// store: blocks already in the store appear on the device, and every
// committed write goes through to the backing file. The store's geometry
// must match the configuration.
func NewWithStore(cfg Config, st *FileStore) (*Disk, error) {
	cfg.applyDefaults()
	if st.BlockSize() != cfg.BlockSize || st.NumBlocks() != cfg.NumBlocks {
		return nil, fmt.Errorf("%w: store geometry %dx%d, device %dx%d",
			ErrBadStore, st.NumBlocks(), st.BlockSize(), cfg.NumBlocks, cfg.BlockSize)
	}
	d := New(cfg)
	blocks, err := st.ReadAll()
	if err != nil {
		return nil, err
	}
	d.blocks = blocks
	d.store = st
	return d, nil
}

// Store returns the durable backing store, or nil for a RAM-only device.
func (d *Disk) Store() *FileStore { return d.store }

// HoldDirty holds the backing store's clean flag down (FileStore.HoldDirty)
// while hold is true. A RAM-only or failed device ignores it.
func (d *Disk) HoldDirty(hold bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.store != nil && !d.failed {
		d.store.HoldDirty(hold)
	}
}

// Config returns the device configuration.
func (d *Disk) Config() Config { return d.cfg }

// Stats returns the device counters: ops, blocks transferred, busy time.
func (d *Disk) Stats() *stats.Counters { return d.stats }

// SetRecorder enables per-access span recording onto rec (nil disables);
// node is the cluster node index stamped on the spans. Each access span is
// annotated with its block range, each sync with the blocks it flushed, and
// a crash is recorded as an event (the fault injector records the errors it
// injects); the device is named by its fault label, or by its node when it
// has none.
func (d *Disk) SetRecorder(rec *obs.Recorder, node int) {
	d.mu.Lock()
	d.rec, d.node = rec, node
	d.mu.Unlock()
}

// SetTrace sets the trace context the next accesses are attributed to;
// called by the owning LFS before it services each request. Zero clears it.
func (d *Disk) SetTrace(t obs.TraceID, parent obs.SpanID) {
	d.mu.Lock()
	d.trace, d.parent = t, parent
	d.mu.Unlock()
}

// SetFault installs a fault hook consulted before every access (nil
// removes it); label names this device in the hook's rules. Set it before
// the simulation starts.
func (d *Disk) SetFault(h FaultHook, label string) {
	d.mu.Lock()
	d.fault, d.label = h, label
	d.corrupter, _ = h.(Corrupter)
	d.latent, _ = h.(LatentFaults)
	d.mu.Unlock()
}

// SetCrashHook installs the hook consulted by Crash for the fate of
// unsynced writes (nil removes it). Set it before the simulation starts.
func (d *Disk) SetCrashHook(h CrashHook) {
	d.mu.Lock()
	d.crash = h
	d.mu.Unlock()
}

// Fail marks the device failed; all subsequent operations return ErrFailed.
// Used by the fault-injection experiments.
func (d *Disk) Fail() {
	d.mu.Lock()
	d.failed = true
	d.mu.Unlock()
}

// Crash fail-stops the device at virtual time now with kill -9 semantics:
// writes not yet covered by a sync barrier are lost, except for a
// surviving prefix — and possibly one torn block — chosen by the crash
// hook. With no hook every unsynced write is dropped. The device then
// fails every operation until Restore.
func (d *Disk) Crash(now time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out CrashOutcome
	if d.crash != nil {
		out = d.crash.OnCrash(now, d.label, append([]int(nil), d.pendingOrder...))
	}
	keep := out.Keep
	if keep > len(d.pendingOrder) {
		keep = len(d.pendingOrder)
	}
	for _, bn := range d.pendingOrder[:keep] {
		d.commit(bn, d.pending[bn])
	}
	torn := 0
	if out.TornBytes > 0 && keep < len(d.pendingOrder) {
		// The next write after the surviving prefix tore mid-transfer:
		// the front of the new image over the back of the old one.
		bn := d.pendingOrder[keep]
		torn = out.TornBytes
		if torn > d.cfg.BlockSize {
			torn = d.cfg.BlockSize
		}
		b := make([]byte, d.cfg.BlockSize)
		if d.blocks[bn] != nil {
			copy(b, d.blocks[bn])
		}
		copy(b[:torn], d.pending[bn][:torn])
		d.commit(bn, b)
	}
	if d.rec != nil {
		d.rec.Event(now, 0, "disk.crash", fmt.Sprintf("%s lost %d unsynced writes (kept %d, torn %d bytes)",
			d.devName(), len(d.pendingOrder)-keep, keep, torn))
	}
	d.pending = make(map[int][]byte)
	d.pendingOrder = nil
	d.failed = true
}

// Restore clears a failure, modeling power-cycling a crashed device. For a
// RAM-only device the stored blocks survive (the medium was not damaged).
// A file-backed device reloads its stable blocks from the backing store and
// loses anything still in the volatile write cache — power-loss semantics.
// Either way, metadata the file system had not made stable is gone.
func (d *Disk) Restore() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.store != nil {
		if blocks, err := d.store.ReadAll(); err == nil {
			d.blocks = blocks
		}
		d.pending = make(map[int][]byte)
		d.pendingOrder = nil
	}
	d.failed = false
}

// Blank reports whether the device holds no data at all — no stable block
// ever written and nothing buffered. A blank device needs a Format; a
// non-blank one (e.g. freshly loaded from a backing store) wants a Mount.
func (d *Disk) Blank() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.pending) > 0 {
		return false
	}
	for _, b := range d.blocks {
		if b != nil {
			return false
		}
	}
	return true
}

// Sync is the device's durability barrier: it commits every buffered write
// to the stable medium in write order and, for file-backed devices, forces
// the backing file down to the host disk. A crash after Sync returns can
// no longer lose the writes it covered. Charges SyncTime for write-back or
// file-backed devices; a plain write-through RAM device syncs for free.
func (d *Disk) Sync(p sim.Proc) error {
	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return ErrFailed
	}
	for _, bn := range d.pendingOrder {
		if old := d.blocks[bn]; old != nil {
			d.spare = append(d.spare, old)
		}
		d.commit(bn, d.pending[bn])
	}
	flushed := len(d.pendingOrder)
	d.pending = make(map[int][]byte) // clear would keep the largest set's buckets
	d.pendingOrder = d.pendingOrder[:0]
	var t time.Duration
	var err error
	if d.cfg.WriteBack || d.store != nil {
		d.nSyncs++
		if d.store != nil {
			err = d.store.Sync(d.nReads, d.nWrites, d.nSyncs)
		}
		t = d.cfg.SyncTime
		d.m.syncs.Add(1)
		d.m.busy.Add(t)
		if d.rec != nil {
			sp := d.rec.Start(p.Now(), d.trace, d.parent, "disk.sync", d.node)
			sp.Annotate(fmt.Sprintf("%s flushed %d blocks", d.devName(), flushed))
			sp.End(p.Now()+t, nil)
		}
	}
	d.mu.Unlock()
	charge(p, t)
	return err
}

// commit stores a block image, a buffer the device owns, on the stable
// medium, writing through to the backing store if there is one. Callers
// hold d.mu. A host-level store write failure is remembered and surfaced by
// the store's next Sync.
func (d *Disk) commit(bn int, b []byte) {
	d.blocks[bn] = b
	if d.store != nil {
		d.store.WriteBlockAt(bn, b)
	}
}

// Failed reports whether the device has failed.
func (d *Disk) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// track returns the track number of a block.
func (d *Disk) track(bn int) int { return bn / d.cfg.BlocksPerTrack }

// access accounts one device access and returns its duration. The caller
// holds d.mu and must charge the returned duration to the process with
// Sleep only after releasing the mutex — sleeping inside the lock would
// stall any other process contending for this device at the host level,
// invisible to the virtual scheduler.
func (d *Disk) access(p sim.Proc, op Op, bn int, blocks int) time.Duration {
	t := d.cfg.Timing.Access(op, d.head, bn, blocks, d.cfg)
	d.head = bn + blocks - 1
	if d.head >= d.cfg.NumBlocks {
		d.head = d.cfg.NumBlocks - 1
	}
	d.m.ops.Add(1)
	d.m.blocks.Add(int64(blocks))
	kind := "disk.read"
	if op == OpWrite {
		kind = "disk.write"
	}
	if op == OpRead {
		d.m.reads.Add(1)
		d.nReads++
	} else {
		d.m.writes.Add(1)
		d.nWrites++
	}
	d.m.busy.Add(t)
	if d.rec != nil {
		// The access is a complete span: service begins now and the caller
		// charges t after unlocking, so the device is busy [now, now+t).
		sp := d.rec.Start(p.Now(), d.trace, d.parent, kind, d.node)
		sp.Annotate(fmt.Sprintf("%s block %d (+%d)", d.devName(), bn, blocks))
		sp.End(p.Now()+t, nil)
	}
	return t
}

// devName names the device in recorded details. Callers hold d.mu.
func (d *Disk) devName() string {
	if d.label != "" {
		return d.label
	}
	return fmt.Sprintf("n%d", d.node)
}

// charge sleeps for a device delay; call without holding d.mu.
func charge(p sim.Proc, t time.Duration) {
	if t > 0 {
		p.Sleep(t)
	}
}

func (d *Disk) check(bn int) error {
	if d.failed {
		return ErrFailed
	}
	if bn < 0 || bn >= d.cfg.NumBlocks {
		return fmt.Errorf("%w: %d (capacity %d)", ErrOutOfRange, bn, d.cfg.NumBlocks)
	}
	return nil
}

// inject consults the fault hook for an access of blocks blocks at bn,
// about each of its first consult blocks in ascending order, and stops at
// the first error. The access is slowed by the largest extra latency any
// block drew: a limping device limps once per access. Callers hold d.mu. On
// an injected error the access is still accounted (the device spun and
// failed), and the returned duration must be charged by the caller after
// unlocking.
func (d *Disk) inject(p sim.Proc, op Op, bn, consult, blocks int) (extra time.Duration, t time.Duration, err error) {
	if d.fault == nil {
		return 0, 0, nil
	}
	for b := bn; b < bn+consult; b++ {
		e, ferr := d.fault.BeforeOp(p.Now(), d.label, op, b)
		extra = max(extra, e)
		if ferr != nil {
			d.m.faultErrors.Add(1)
			return extra, d.access(p, op, bn, blocks), ferr
		}
	}
	return extra, 0, nil
}

// ReadBlock returns a copy of block bn, charging one access.
func (d *Disk) ReadBlock(p sim.Proc, bn int) ([]byte, error) {
	d.mu.Lock()
	if err := d.check(bn); err != nil {
		d.mu.Unlock()
		return nil, err
	}
	extra, ft, ferr := d.inject(p, OpRead, bn, 1, 1)
	if ferr != nil {
		d.mu.Unlock()
		charge(p, ft+extra)
		return nil, ferr
	}
	t := d.access(p, OpRead, bn, 1)
	d.corrupt(p, bn)
	out := d.copyOut(bn)
	d.mu.Unlock()
	charge(p, t+extra)
	return out, nil
}

// ReadTrack reads the whole track containing bn for a single access charge
// and hands each block's image to fn, in ascending block order, under the
// device lock. This models a full-track read under one rotation and is the
// basis of the EFS read-ahead buffer. The image is the device's own buffer
// (one shared zero block for every never-written block), valid only during
// the call: fn copies what it keeps, changes nothing, and must not call
// back into the device. A neighbour of bn with a latent fault (see
// LatentFaults) is left out; bn's own fault fails the read.
func (d *Disk) ReadTrack(p sim.Proc, bn int, fn func(bn int, img []byte)) error {
	d.mu.Lock()
	if err := d.check(bn); err != nil {
		d.mu.Unlock()
		return err
	}
	first := d.track(bn) * d.cfg.BlocksPerTrack
	last := first + d.cfg.BlocksPerTrack
	if last > d.cfg.NumBlocks {
		last = d.cfg.NumBlocks
	}
	extra, ft, ferr := d.inject(p, OpRead, bn, 1, last-first)
	if ferr != nil {
		d.mu.Unlock()
		charge(p, ft+extra)
		return ferr
	}
	t := d.access(p, OpRead, first, last-first)
	for b := first; b < last; b++ {
		// Ascending block order keeps corruption application replayable;
		// a latent block still spins past the head, so it is offered to
		// the corrupter like any other.
		d.corrupt(p, b)
		if b != bn && d.latent != nil && d.latent.Latent(d.label, b) {
			continue
		}
		img := d.image(b)
		if img == nil {
			img = d.zero
		}
		fn(b, img)
	}
	d.mu.Unlock()
	charge(p, t+extra)
	return nil
}

// WriteBlock stores a copy of data into block bn, charging one access;
// the caller keeps data. len(data) must equal the block size. It is a
// WriteRun of one block.
func (d *Disk) WriteBlock(p sim.Proc, bn int, data []byte) error {
	one := [1][]byte{data}
	return d.WriteRun(p, bn, one[:])
}

// WriteRun stores a copy of imgs[i] into block bn+i for every i, charging a
// single access: the write twin of ReadTrack, a run of consecutive blocks
// written under one rotation. The run must lie on one track (ErrOffTrack)
// and every image must be one block; the caller keeps imgs. An empty run
// writes nothing and charges nothing.
//
// The fault hook is consulted for every block of the run, in ascending
// order; an injected error fails the whole run, charged one access, and
// nothing lands. A misdirected write (Corrupter.RedirectWrite) is decided
// per block. Under WriteBack each block is its own buffered write, in
// ascending order, so a crash keeps a prefix of the run and may tear one
// block, exactly as separate WriteBlocks would.
func (d *Disk) WriteRun(p sim.Proc, bn int, imgs [][]byte) error {
	k := len(imgs)
	if k == 0 {
		return nil
	}
	d.mu.Lock()
	if err := d.checkRun(bn, imgs); err != nil {
		d.mu.Unlock()
		return err
	}
	extra, ft, ferr := d.inject(p, OpWrite, bn, k, k)
	if ferr != nil {
		d.mu.Unlock()
		charge(p, ft+extra)
		return ferr
	}
	t := d.access(p, OpWrite, bn, k)
	for i, data := range imgs {
		target := bn + i
		if d.corrupter != nil {
			if to := d.corrupter.RedirectWrite(p.Now(), d.label, target); to >= 0 && to < d.cfg.NumBlocks {
				// A misdirected write: the controller believes it wrote
				// bn+i (timing and head position already accounted there),
				// but the data silently lands on another block.
				target = to
			}
		}
		d.land(target, data)
	}
	d.mu.Unlock()
	charge(p, t+extra)
	return nil
}

// checkRun validates a write run: the device is up, the run lies on one
// track of the device, and every image is one block. Callers hold d.mu.
func (d *Disk) checkRun(bn int, imgs [][]byte) error {
	if err := d.check(bn); err != nil {
		return err
	}
	last := bn + len(imgs) - 1
	if err := d.check(last); err != nil {
		return err
	}
	if d.track(bn) != d.track(last) {
		return fmt.Errorf("%w: blocks %d..%d", ErrOffTrack, bn, last)
	}
	for _, data := range imgs {
		if len(data) != d.cfg.BlockSize {
			return fmt.Errorf("%w: got %d, want %d", ErrBadSize, len(data), d.cfg.BlockSize)
		}
	}
	return nil
}

// land stores a copy of data as block bn's image: buffered in the volatile
// write cache under WriteBack, else straight onto the stable medium.
// Callers hold d.mu.
func (d *Disk) land(bn int, data []byte) {
	if !d.cfg.WriteBack {
		// Write-through: the new image overwrites the stable one in place.
		b := d.blocks[bn]
		if b == nil {
			b = make([]byte, d.cfg.BlockSize)
		}
		copy(b, data)
		d.commit(bn, b)
		return
	}
	// Buffer in the volatile write cache, in a stable image the last
	// barrier displaced when one is spare. A rewrite of an already buffered
	// block moves it to the back of the order, so the surviving-prefix crash
	// model can never keep a newer write while dropping an older one.
	b, ok := d.pending[bn]
	if ok {
		for i, pb := range d.pendingOrder {
			if pb == bn {
				d.pendingOrder = append(d.pendingOrder[:i], d.pendingOrder[i+1:]...)
				break
			}
		}
	} else if n := len(d.spare); n > 0 {
		b = d.spare[n-1]
		d.spare = d.spare[:n-1]
		d.pending[bn] = b
	} else {
		b = make([]byte, d.cfg.BlockSize)
		d.pending[bn] = b
	}
	copy(b, data)
	d.pendingOrder = append(d.pendingOrder, bn)
}

// image returns the device's current view of block bn — the buffered
// write if one is pending, else the stable copy (nil if never written).
// Callers hold d.mu.
func (d *Disk) image(bn int) []byte {
	if b, ok := d.pending[bn]; ok {
		return b
	}
	return d.blocks[bn]
}

// corrupt lets an installed Corrupter rot the stored bytes of block bn
// before they are served by a read. Never-written blocks have no stored
// image to rot. Callers hold d.mu.
func (d *Disk) corrupt(p sim.Proc, bn int) {
	img := d.image(bn)
	if d.corrupter == nil || img == nil {
		return
	}
	d.corrupter.CorruptBlock(p.Now(), d.label, bn, img)
}

// copyOut returns a copy of block bn as a read would see it (buffered
// writes included); never-written blocks read as zeroes. Callers hold d.mu.
func (d *Disk) copyOut(bn int) []byte {
	b := make([]byte, d.cfg.BlockSize)
	if img := d.image(bn); img != nil {
		copy(b, img)
	}
	return b
}

// Peek returns the raw block image as a read would see it (buffered writes
// included) without charging time or copying; for tests only. A nil result
// means a never-written block. The image is live: the next write to the
// block changes it in place, so a caller that compares across writes copies
// it first.
func (d *Disk) Peek(bn int) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	if bn < 0 || bn >= d.cfg.NumBlocks {
		return nil
	}
	return d.image(bn)
}

// PeekStable returns the raw stable (synced) image of block bn, ignoring
// the volatile write cache; for crash tests comparing medium state. A nil
// result means the block was never made stable. The image is live: the
// next write that reaches the medium for this block changes it in place,
// and on a write-back device a barrier that displaces it hands it to
// another block's next write.
func (d *Disk) PeekStable(bn int) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	if bn < 0 || bn >= d.cfg.NumBlocks {
		return nil
	}
	return d.blocks[bn]
}

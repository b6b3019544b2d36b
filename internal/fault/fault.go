// Package fault is a seeded, deterministic fault injector for the simulated
// Bridge system. It plugs into the message network (drop, extra delay,
// duplication, node partitions) and the disks (transient errors, latent bad
// blocks, slow-disk "limping"), and drives scheduled node crashes and
// restarts at fixed virtual times.
//
// Everything the injector does is a pure function of its seed, its
// configured schedule, and the order in which the simulation consults it.
// Under the virtual clock that order is deterministic, so a chaos run with
// a given seed replays exactly: same faults, same timestamps, same trace.
// The paper concedes that in Bridge "a failure anywhere in the system is
// fatal; it ruins every file" — this package exists to exercise every layer
// that now disagrees.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bridge/internal/disk"
	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/stats"
)

// ErrInjected is the base error of every injected disk fault, so callers
// (and tests) can distinguish chaos from genuine corruption.
var ErrInjected = errors.New("fault: injected I/O error")

// MsgFaults describes message-layer misbehavior inside a window.
type MsgFaults struct {
	// DropProb is the per-message probability of silent loss.
	DropProb float64
	// DupProb is the per-message probability of one duplicate delivery.
	DupProb float64
	// DelayProb is the per-message probability of extra delay, drawn
	// uniformly from (0, DelayMax].
	DelayProb float64
	DelayMax  time.Duration
}

// DiskFaults describes device-layer misbehavior inside a window.
type DiskFaults struct {
	// ReadErrProb and WriteErrProb are per-access probabilities of a
	// transient error (the access is charged but fails).
	ReadErrProb  float64
	WriteErrProb float64
	// ExtraLatency is added to every access: a limping device.
	ExtraLatency time.Duration
}

// CrashModel describes the fate of a device's volatile write cache when a
// node is power-failed (kill -9). The surviving prefix of unsynced writes
// is always drawn uniformly; TornProb decides whether the first lost write
// additionally lands torn — a seeded prefix of the new image spliced onto
// the old block, exactly what a half-finished sector write leaves behind.
type CrashModel struct {
	// TornProb is the probability that the first lost unsynced write is
	// torn rather than cleanly absent.
	TornProb float64
}

type window struct{ from, to time.Duration }

func (w window) contains(now time.Duration) bool { return now >= w.from && now < w.to }

type msgRule struct {
	window
	f MsgFaults
}

type partition struct {
	window
	a, b msg.NodeID
}

type diskRule struct {
	window
	label string // "" matches every disk
	f     DiskFaults
}

type diskBlock struct {
	label string
	bn    int
}

// misdirect reroutes the next write of fromBn on the labeled disk to toBn.
type misdirect struct {
	label  string
	fromBn int
}

// Injector implements msg.FaultHook and disk.FaultHook. Configure it fully
// before the simulation starts; the hook methods themselves are safe for
// concurrent use.
type Injector struct {
	seed  int64
	stats *stats.Counters
	m     injMetrics

	// mu guards everything below, including the rng: the hook methods run
	// on whichever simulated process consults the injector, and a shared
	// unlocked rand.Rand would corrupt its own state — and with it the
	// determinism contract. Never use global math/rand here.
	mu          sync.Mutex
	rec         *obs.Recorder // nil = faults are not recorded
	rng         *rand.Rand
	msgRules    []msgRule
	partitions  []partition
	diskRules   []diskRule
	badBlocks   map[diskBlock]bool
	rotPending  map[diskBlock]bool // one-shot bitrot applied at the next read
	misdirects  map[misdirect]int  // fromBn -> toBn, one-shot
	schedule    []NodeEvent
	srvSchedule []ServerEvent
	crashModel  CrashModel
	blockSizes  map[string]int // disk label -> block size, for torn draws
}

// injMetrics are the injector's typed metric handles: faults injected by
// kind.
type injMetrics struct {
	msgPartitioned  obs.Counter
	msgDropped      obs.Counter
	msgDuplicated   obs.Counter
	msgDelayed      obs.Counter
	diskBadBlock    obs.Counter
	diskTransient   obs.Counter
	diskLimped      obs.Counter
	diskBitrot      obs.Counter
	diskMisdirected obs.Counter
	diskTorn        obs.Counter
	diskLost        obs.Counter
	nodeCrashes     obs.Counter
	nodeKills       obs.Counter
	nodeRestarts    obs.Counter
	serverKills     obs.Counter
	serverRestarts  obs.Counter
}

func newInjMetrics(r *obs.Registry) injMetrics {
	return injMetrics{
		msgPartitioned:  r.Counter("fault.msg_partitioned", "messages", "Messages dropped by an active network partition."),
		msgDropped:      r.Counter("fault.msg_dropped", "messages", "Messages dropped by a loss rule."),
		msgDuplicated:   r.Counter("fault.msg_duplicated", "messages", "Messages duplicated by a duplication rule."),
		msgDelayed:      r.Counter("fault.msg_delayed", "messages", "Messages given extra latency by a delay rule."),
		diskBadBlock:    r.Counter("fault.disk_bad_block", "reads", "Reads failed by a planted latent bad block."),
		diskTransient:   r.Counter("fault.disk_transient", "ops", "Disk operations failed by a transient-error rule."),
		diskLimped:      r.Counter("fault.disk_limped", "ops", "Disk operations slowed by an extra-latency rule."),
		diskBitrot:      r.Counter("fault.disk_bitrot", "blocks", "Blocks whose contents were corrupted by a flipped bit."),
		diskMisdirected: r.Counter("fault.disk_misdirected", "writes", "Writes silently redirected to the wrong block."),
		diskTorn:        r.Counter("fault.disk_torn_writes", "writes", "Unsynced writes left torn (partially applied) by a kill-9 crash."),
		diskLost:        r.Counter("fault.disk_lost_unsynced", "writes", "Unsynced writes dropped entirely by a kill-9 crash."),
		nodeCrashes:     r.Counter("fault.node_crashes", "events", "Scheduled whole-node crashes executed."),
		nodeKills:       r.Counter("fault.node_kills", "events", "Scheduled kill-9 power failures executed."),
		nodeRestarts:    r.Counter("fault.node_restarts", "events", "Scheduled node restarts executed."),
		serverKills:     r.Counter("fault.server_kills", "events", "Scheduled replica-server kill-9 power failures executed."),
		serverRestarts:  r.Counter("fault.server_restarts", "events", "Scheduled replica-server restarts executed."),
	}
}

// New creates an injector with the given seed. Two injectors with the same
// seed and configuration behave identically on identical simulations.
func New(seed int64) *Injector {
	in := &Injector{
		seed:       seed,
		stats:      stats.New(),
		rng:        rand.New(rand.NewSource(seed)),
		badBlocks:  make(map[diskBlock]bool),
		rotPending: make(map[diskBlock]bool),
		misdirects: make(map[misdirect]int),
		blockSizes: make(map[string]int),
	}
	in.m = newInjMetrics(in.stats.Registry())
	return in
}

// Seed returns the injector's seed.
func (in *Injector) Seed() int64 { return in.seed }

// Stats returns the injector's counters: faults injected by kind.
func (in *Injector) Stats() *stats.Counters { return in.stats }

// SetRecorder records an event for every injected fault on rec (nil
// disables). A dropped message is left to the network's net.drop event and
// a crash's lost writes to the disk's disk.crash. The hooks read the
// recorder under in.mu, so installation must hold it too.
func (in *Injector) SetRecorder(rec *obs.Recorder) {
	in.mu.Lock()
	in.rec = rec
	in.mu.Unlock()
}

// MsgWindow injects message faults between virtual times from and to.
func (in *Injector) MsgWindow(from, to time.Duration, f MsgFaults) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.msgRules = append(in.msgRules, msgRule{window{from, to}, f})
}

// Partition drops every message between nodes a and b (both directions)
// inside the window, modeling a split interconnect.
func (in *Injector) Partition(from, to time.Duration, a, b msg.NodeID) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.partitions = append(in.partitions, partition{window{from, to}, a, b})
}

// DiskWindow injects device faults between virtual times from and to on the
// disk with the given label ("" matches all disks).
func (in *Injector) DiskWindow(from, to time.Duration, label string, f DiskFaults) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.diskRules = append(in.diskRules, diskRule{window{from, to}, label, f})
}

// BadBlock plants a latent fault: reads of block bn on the labeled disk
// fail until the block is next written (the rewrite "reallocates" it).
func (in *Injector) BadBlock(label string, bn int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.badBlocks[diskBlock{label, bn}] = true
}

// Bitrot plants silent corruption: the next read of block bn on the labeled
// disk finds a seeded bit flipped in the stored bytes. No error is returned
// by the device — only a checksum can tell. The rot applies lazily at the
// next read (not at call time) so it lands identically on every replay.
func (in *Injector) Bitrot(label string, bn int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rotPending[diskBlock{label, bn}] = true
}

// MisdirectWrite makes the next write of fromBn on the labeled disk silently
// land on toBn instead: fromBn keeps its stale contents and toBn receives a
// block sealed for the wrong address.
func (in *Injector) MisdirectWrite(label string, fromBn, toBn int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.misdirects[misdirect{label, fromBn}] = toBn
}

// AttachNetwork installs the injector as net's fault hook.
func (in *Injector) AttachNetwork(net *msg.Network) { net.SetFault(in) }

// AttachDisk installs the injector as d's fault hook and crash hook under
// the given label.
func (in *Injector) AttachDisk(d *disk.Disk, label string) {
	in.mu.Lock()
	in.blockSizes[label] = d.Config().BlockSize
	in.mu.Unlock()
	d.SetFault(in, label)
	d.SetCrashHook(in)
}

// SetCrashModel configures the fate of unsynced writes at kill-9 crashes
// (the zero model keeps a random prefix and never tears).
func (in *Injector) SetCrashModel(m CrashModel) {
	in.mu.Lock()
	in.crashModel = m
	in.mu.Unlock()
}

// OnCrash implements disk.CrashHook: the seeded kill-9 model. A uniformly
// drawn prefix of the unsynced writes (possibly none, possibly all) had
// already reached the medium before the power went; the rest are lost,
// and with probability CrashModel.TornProb the first lost write lands torn
// at a seeded byte offset instead of vanishing cleanly.
func (in *Injector) OnCrash(now time.Duration, label string, pending []int) disk.CrashOutcome {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out disk.CrashOutcome
	if len(pending) == 0 {
		return out
	}
	out.Keep = in.rng.Intn(len(pending) + 1)
	lost := len(pending) - out.Keep
	if lost == 0 {
		return out
	}
	in.m.diskLost.Add(int64(lost))
	if in.rng.Float64() < in.crashModel.TornProb {
		bs := in.blockSizes[label]
		if bs == 0 {
			bs = 1024
		}
		// Torn means strictly partial: at least one byte landed, at
		// least one byte did not.
		out.TornBytes = 1 + in.rng.Intn(bs-1)
		in.m.diskTorn.Add(1)
	}
	return out
}

// Deliver implements msg.FaultHook.
func (in *Injector) Deliver(now time.Duration, from msg.NodeID, to msg.Addr, m *msg.Message) msg.Fate {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, p := range in.partitions {
		if p.contains(now) && ((p.a == from && p.b == to.Node) || (p.b == from && p.a == to.Node)) {
			in.m.msgPartitioned.Add(1)
			return msg.Fate{Drop: true}
		}
	}
	var fate msg.Fate
	for _, r := range in.msgRules {
		if !r.contains(now) {
			continue
		}
		// Draw in a fixed order so the consumed randomness per message is
		// schedule-independent.
		drop := in.rng.Float64() < r.f.DropProb
		dup := in.rng.Float64() < r.f.DupProb
		delay := in.rng.Float64() < r.f.DelayProb
		if drop {
			in.m.msgDropped.Add(1)
			return msg.Fate{Drop: true}
		}
		if dup {
			fate.Duplicates++
			in.m.msgDuplicated.Add(1)
			in.emit(now, "fault.dup", "n%d -> %v %T", from, to, m.Body)
		}
		if delay && r.f.DelayMax > 0 {
			d := time.Duration(in.rng.Int63n(int64(r.f.DelayMax))) + 1
			fate.ExtraDelay += d
			in.m.msgDelayed.Add(1)
			in.emit(now, "fault.delay", "n%d -> %v %T +%v", from, to, m.Body, d)
		}
	}
	return fate
}

// BeforeOp implements disk.FaultHook.
func (in *Injector) BeforeOp(now time.Duration, label string, op disk.Op, bn int) (time.Duration, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	key := diskBlock{label, bn}
	if in.badBlocks[key] {
		if op == disk.OpWrite {
			// The rewrite clears the latent fault.
			delete(in.badBlocks, key)
		} else {
			in.m.diskBadBlock.Add(1)
			in.emit(now, "fault.badblock", "%s block %d", label, bn)
			return 0, fmt.Errorf("%w: latent bad block %d on %s", ErrInjected, bn, label)
		}
	}
	var extra time.Duration
	for _, r := range in.diskRules {
		if !r.contains(now) || (r.label != "" && r.label != label) {
			continue
		}
		extra += r.f.ExtraLatency
		prob := r.f.ReadErrProb
		if op == disk.OpWrite {
			prob = r.f.WriteErrProb
		}
		if in.rng.Float64() < prob {
			in.m.diskTransient.Add(1)
			in.emit(now, "fault.diskerr", "%s block %d", label, bn)
			return extra, fmt.Errorf("%w: transient %s error on %s block %d", ErrInjected, opName(op), label, bn)
		}
	}
	if extra > 0 {
		in.m.diskLimped.Add(1)
	}
	return extra, nil
}

// Latent implements disk.LatentFaults: whether a bad block planted on the
// labeled disk has not been rewritten yet. It draws no randomness.
func (in *Injector) Latent(label string, bn int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.badBlocks[diskBlock{label, bn}]
}

// CorruptBlock implements disk.Corrupter: called on every read of a stored
// block, it may flip a seeded bit in the device's own buffer — the read then
// succeeds with wrong contents. Rot planted with Bitrot applies at the
// block's next read, so the randomness consumed is schedule-independent.
func (in *Injector) CorruptBlock(now time.Duration, label string, bn int, data []byte) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	key := diskBlock{label, bn}
	if !in.rotPending[key] {
		return false
	}
	delete(in.rotPending, key)
	bit := in.rng.Intn(len(data) * 8)
	data[bit/8] ^= 1 << (uint(bit) % 8)
	in.m.diskBitrot.Add(1)
	in.emit(now, "fault.bitrot", "%s block %d bit %d", label, bn, bit)
	return true
}

// RedirectWrite implements disk.Corrupter: a write of a block armed with
// MisdirectWrite silently lands on the configured target instead.
func (in *Injector) RedirectWrite(now time.Duration, label string, bn int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	key := misdirect{label, bn}
	to, ok := in.misdirects[key]
	if !ok {
		return bn
	}
	delete(in.misdirects, key)
	in.m.diskMisdirected.Add(1)
	in.emit(now, "fault.misdirect", "%s block %d -> %d", label, bn, to)
	return to
}

func opName(op disk.Op) string {
	if op == disk.OpWrite {
		return "write"
	}
	return "read"
}

// emit records a fault event; callers hold in.mu.
func (in *Injector) emit(now time.Duration, kind, format string, args ...any) {
	if in.rec != nil {
		in.rec.Event(now, 0, kind, fmt.Sprintf(format, args...))
	}
}

// Package bridge is a reproduction of the Bridge parallel file system
// (Dibble, Ellis, Scott — "Bridge: A High-Performance File System for
// Parallel Processors", ICDCS 1988).
//
// Bridge interleaves the blocks of every file round-robin across p local
// file systems, each with its own processor and disk, and offers three
// views: a naive sequential interface, a parallel-open job interface, and a
// tool interface in which applications export code onto the storage nodes
// and access the local file systems directly.
//
// This package is the public facade. A System boots a simulated Bridge
// cluster (storage nodes, disks with Wren-class 15 ms access times, the
// Bridge Server, and a message network with Butterfly-class costs) under a
// deterministic virtual clock; Run executes your code as a process of that
// system, and the Session handle exposes the file operations and the
// standard tools:
//
//	sys, err := bridge.New(bridge.Config{Nodes: 8})
//	if err != nil { ... }
//	err = sys.Run(func(s *bridge.Session) error {
//		if err := s.Create("data"); err != nil {
//			return err
//		}
//		if err := s.Append("data", []byte("hello bridge")); err != nil {
//			return err
//		}
//		_, err := s.Copy("data", "data.bak") // parallel copy tool
//		return err
//	})
//
// Time inside Run is simulated: s.Now() reports it, and the performance
// of every operation reflects the configured disk and network model, not
// the host machine.
package bridge

import (
	"errors"
	"fmt"
	"io"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/distrib"
	"bridge/internal/efs"
	"bridge/internal/fault"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/raft"
	"bridge/internal/replica"
	"bridge/internal/sim"
	"bridge/internal/tools"
)

// Re-exported types from the implementation packages, so the whole public
// surface is reachable from this package alone.
type (
	// FileInfo describes an interleaved file: its id, placement spec,
	// constituent nodes, and size in blocks.
	FileInfo = core.Meta
	// ClusterInfo is the Get Info result: the structure a tool needs.
	ClusterInfo = core.Info
	// PlacementSpec selects a block-placement strategy (round-robin by
	// default; chunked and hashed for the Section 3 ablations).
	PlacementSpec = distrib.Spec
	// CopyStats reports a copy tool run.
	CopyStats = tools.CopyStats
	// SortStats reports a sort tool run, split into the paper's two
	// phases.
	SortStats = tools.SortStats
	// SortOptions tunes the sort tool.
	SortOptions = tools.SortOptions
	// GrepResult lists the matches a grep tool found.
	GrepResult = tools.GrepResult
	// WCResult is the summary tool's output.
	WCResult = tools.WCResult
	// Transform is a one-to-one block filter for Filter.
	Transform = tools.Transform
	// Mirror is a 2-way replicated file.
	Mirror = replica.Mirror
	// Parity is a parity-protected file.
	Parity = replica.Parity
	// RS is a Reed–Solomon k+m erasure-coded file: data striped over k
	// nodes, m parity columns, any m simultaneous losses survivable at
	// (k+m)/k storage overhead.
	RS = replica.RS
	// RSOptions selects the Reed–Solomon geometry (K data columns, M
	// parity columns, cell size).
	RSOptions = replica.RSOptions
	// DeleteStats reports a parallel delete tool run.
	DeleteStats = tools.DeleteStats
	// RetryPolicy tunes capped exponential backoff with deterministic
	// jitter for retransmitting timed-out calls.
	RetryPolicy = core.RetryPolicy
	// HealthConfig tunes the Bridge Server's node health monitor.
	HealthConfig = core.HealthConfig
	// NodeHealth is one storage node's monitored state.
	NodeHealth = core.NodeHealth
	// HealthState is a node's health classification.
	HealthState = core.HealthState
	// FaultInjector deterministically injects message and disk faults and
	// drives node crash/restart schedules; see NewFaultInjector.
	FaultInjector = fault.Injector
	// CheckReport is one node's fsck result.
	CheckReport = efs.CheckReport
	// ScrubReport is one node's scrub sweep result.
	ScrubReport = efs.ScrubReport
	// ScrubConfig tunes the per-node background scrubber; see Config.Scrub.
	ScrubConfig = lfs.ScrubConfig
	// RecoveryReport is one node's boot recovery outcome: journal replay
	// stats plus the fsck that verified the remounted volume.
	RecoveryReport = lfs.RecoveryReport
	// ReplayStats describes one journal replay (entries applied, torn
	// tail records discarded, superblock restored).
	ReplayStats = efs.ReplayStats
	// CrashModel tunes the fate of unsynced disk writes at kill-9 crashes
	// (torn-write probability); see FaultInjector.SetCrashModel.
	CrashModel = fault.CrashModel
	// ObsConfig tunes the observability recorder (span capacity, gauge
	// sampling interval); see Config.Obs.
	ObsConfig = obs.Config
	// MetricValue is one registered metric with its description and current
	// value, as returned by MetricsSnapshot.Values.
	MetricValue = obs.Value
	// MetricKind classifies a metric (counter, timer, gauge).
	MetricKind = obs.MetricKind
	// LatencyHistogram is one op kind's log-scale latency distribution.
	LatencyHistogram = obs.HistSnapshot
	// OpSpan is one recorded operation span: virtual start/end, queue wait,
	// node, and causal links.
	OpSpan = obs.Span
	// RaftStatus is one replica's consensus state (role, term, commit
	// index), as reported by Inspector.Raft in replicated mode.
	RaftStatus = raft.Status
)

// Health states, re-exported.
const (
	Healthy = core.Healthy
	Suspect = core.Suspect
	Dead    = core.Dead
)

// PayloadBytes is the usable payload per block: 960 bytes, as in the paper
// (1024-byte blocks minus the 24-byte EFS header and 40-byte Bridge
// header).
const PayloadBytes = core.PayloadBytes

// Standard one-to-one filters from the tools package.
var (
	// ToUpper translates lowercase ASCII to uppercase.
	ToUpper Transform = tools.ToUpper
	// Rot13 rotates ASCII letters by 13.
	Rot13 Transform = tools.Rot13
)

// XORCipher returns a reversible encryption filter.
func XORCipher(key []byte) Transform { return tools.XORCipher(key) }

// Sentinel errors, re-exported. Test for them with errors.Is: a failure
// that crossed a message comes back as its class's sentinel wrapped around
// the far side's message. The class travels as a code, so what a file is
// named or a message happens to say never changes what an error is.
var (
	ErrNotFound = core.ErrNotFound
	ErrExists   = core.ErrExists
	ErrEOF      = core.ErrEOF
	// ErrNodeDown is the health monitor's fast-fail: the target node is
	// marked Dead, so the call failed immediately instead of timing out.
	ErrNodeDown = core.ErrNodeDown
	// ErrDegradedWrite reports a Parity or RS append whose data landed but
	// one of whose parity cells could not, for a reason other than a dead
	// node (which diverts the cell instead); Rebuild restores redundancy. A
	// Mirror append whose copy fails that way fails, to be retried.
	ErrDegradedWrite = replica.ErrDegradedWrite
	// ErrDeferredWrite reports that previously acknowledged write-behind
	// blocks failed to reach the disks: the file was rolled back to its
	// durable prefix, and this error surfaced exactly once on the first
	// operation to touch the file afterwards. A call that carries no
	// operation id (Open, Stat, ReadAt, Scrub, a plain Fsck) reports it
	// at most once: if that call's reply is lost, its retry succeeds
	// against the rolled-back size. See Config.WriteBehind.
	ErrDeferredWrite = core.ErrDeferredWrite
	// ErrBothCopiesLost reports a mirror read with neither copy reachable.
	// It is ErrTooManyFailures under the mirror's name.
	ErrBothCopiesLost = replica.ErrBothCopiesLost
	// ErrTooManyFailures reports a redundant read that cannot decode its
	// block: more cells of its stripe are lost than the code corrects, or
	// the stripe is stale.
	ErrTooManyFailures = replica.ErrTooManyFailures
	// ErrInjected marks disk errors produced by a FaultInjector.
	ErrInjected = fault.ErrInjected
	// ErrCorrupt reports a block whose checksum did not verify. Mirrored
	// and parity-protected files self-heal (read-repair); reads of
	// unreplicated files fail with this error naming the node and block.
	ErrCorrupt = core.ErrCorrupt
	// ErrObsDisabled reports an Inspector trace export without Config.Obs.
	ErrObsDisabled = obs.ErrNoRecorder
	// ErrNotLeader reports a request that reached a replica which is not
	// the current consensus leader; the session's client follows the
	// attached redirect automatically, so user code only sees this when
	// no replica can lead (for example, a partitioned majority).
	ErrNotLeader = core.ErrNotLeader
	// ErrCrossShard reports a rename whose old and new names hash to
	// different directory shard groups (Config.Servers > 1); a rename is
	// atomic within one shard's directory and Bridge has no cross-group
	// transaction. Use Session.ShardOf to pick a new name on the file's
	// shard, or copy + delete.
	ErrCrossShard = core.ErrCrossShard
	// ErrBadArg reports an invalid argument or configuration: bad
	// topology combinations, disordered files or parallel-open jobs in
	// replicated mode, and similar.
	ErrBadArg = core.ErrBadArg
)

// NewFaultInjector creates a deterministic fault injector seeded for exact
// replay; pass it in Config.Fault. Configure fault windows, partitions, bad
// blocks, and node crash/restart schedules on it before calling Run.
func NewFaultInjector(seed int64) *FaultInjector { return fault.New(seed) }

// Config describes the simulated system.
type Config struct {
	// Nodes is the number of storage nodes (processor + disk + LFS).
	// Default 4.
	Nodes int
	// Servers is the number of directory shard groups (default 1). The
	// file namespace partitions among the groups by a stable hash of the
	// name — the distributed-server variant the paper sketches for heavy
	// server loads. Servers and Replicas compose into one unified
	// topology: the cluster runs Servers shard groups of Replicas members
	// each (Servers × Replicas server processes when Replicas > 1, or
	// Servers unreplicated processes otherwise). Renames whose old and
	// new names hash to different groups fail with ErrCrossShard.
	Servers int
	// Replicas is the size of each shard group; 0 and 1 both mean a group
	// of one (an unreplicated Bridge Server). Above 1 (3 is the useful
	// minimum) each shard group is a set of that many Bridge Servers
	// behind its own independent Raft-style log: every directory mutation
	// commits to a quorum of its shard's group before it is acknowledged,
	// a killed leader is replaced by election within its group, and
	// clients follow NotLeader redirects transparently with a per-shard
	// leader guess — an election on one shard never stalls traffic to the
	// others. With DataDir set, each member's consensus state persists in
	// <DataDir>/raft<flat>.disk (flat = shard*Replicas + member), and
	// <DataDir>/raft.starts counts the Runs on it, so that each Run's
	// session is a new client to the op tables an earlier Run left. Kill
	// and revive members with Session.CrashServer/RestartServer
	// (addressed by shard and member) or a FaultInjector server schedule;
	// inspect elections with Inspect().Raft(shard).
	//
	// What a replicated group offers, rejects with ErrBadArg (Health and
	// ReadAhead here in New; disordered files and parallel-open jobs at
	// the call) or gets wrong is DESIGN.md's feature × group-size table.
	Replicas int
	// DiskBlocks is each node's capacity in 1 KB blocks. Default 8192.
	DiskBlocks int
	// Journal reserves that many blocks per node for a write-ahead intent
	// journal (0 = off). With a journal, every multi-block metadata update
	// is logged, synced, and applied — a crash mid-update replays on
	// remount instead of corrupting the volume — and each disk runs a
	// volatile write cache so crashes exercise real kill-9 semantics.
	// The minimum is the bitmap size plus a few entry blocks; ~64 is a
	// comfortable choice for the default geometry.
	Journal int
	// DataDir, when non-empty, backs every node's disk with a durable
	// store file (<DataDir>/node<i>.disk, a disk.FileStore written in
	// place): committed blocks survive the host process, and a rerun
	// against the same directory remounts the volumes — with journal
	// replay when Journal is set, and an fsck verifier unless the store
	// was clean at open (inspect via Inspect().Recovery; Session.Fsck
	// walks on demand). These files are what the bridgefs command keeps
	// in its state directory too; Run closes them when it returns.
	DataDir string
	// DiskLatency is the per-access device time. Default 15ms (CDC
	// Wren class, as in the paper). Set Seek to use a seek+rotation
	// model instead.
	DiskLatency time.Duration
	// Seek switches to the richer seek/rotation disk model.
	Seek bool
	// Health enables the Bridge Server's heartbeat monitor. Every call the
	// server makes to a node marked Dead — data, metadata or maintenance —
	// fast-fails with ErrNodeDown instead of waiting out the LFS timeout,
	// and a call in flight when its node dies is abandoned as soon as the
	// monitor says so, which is what lets mirrored and parity reads fail
	// over quickly. Delete still frees the live nodes' blocks before it
	// reports the dead one. Use &HealthConfig{} for the defaults.
	Health *HealthConfig
	// Retry enables capped exponential backoff with deterministic jitter:
	// the session's server calls and every call the server makes to a
	// storage node retransmit on timeout. Requests carry operation ids, so
	// retransmitted writes are deduplicated, never applied twice, and a
	// retransmitted create or delete that finds its own first attempt's
	// work done counts as done. Use &RetryPolicy{} for the defaults. With Fault set, the jitter seeds are derived from the
	// injector's seed, so one seed determines the whole chaos run.
	Retry *RetryPolicy
	// LFSTimeout bounds each Bridge Server → LFS call (default 60s). Pair
	// Retry with a short timeout (~1s) on lossy networks so a dropped
	// reply stalls the server briefly, not for a minute.
	LFSTimeout time.Duration
	// ReadAhead enables the Bridge Server's sequential read-ahead cache:
	// naive reads are served from per-(client, file) windows of ReadAhead
	// stripes (ReadAhead×Nodes blocks) while the next window prefetches
	// asynchronously. 0 (the default) keeps the paper's measured
	// one-block-per-round-trip behavior.
	ReadAhead int
	// WriteBehind enables the Bridge Server's group-commit append cache:
	// sequential appends are acknowledged once buffered, and windows of
	// WriteBehind stripes (WriteBehind×Nodes blocks) are committed as
	// coalesced per-node vectored writes while the client keeps running.
	// Reads, overwrites, Stat, and Flush/Sync all drain the buffer first,
	// so the relaxation is never observable through the API; a commit that
	// fails rolls the file back to its durable prefix and surfaces
	// ErrDeferredWrite exactly once on the next operation touching the
	// file. 0 (the default) keeps every append synchronous.
	WriteBehind int
	// ParallelDelete routes Session.Delete through the tool-mode parallel
	// delete: each storage node walks and frees its own chain locally, so
	// an n-block delete costs O(n/p) disk time instead of O(n).
	ParallelDelete bool
	// Fault, if non-nil, attaches this deterministic fault injector to the
	// network and every disk, and drives its node crash/restart schedule
	// against the cluster. Scheduled events only fire while the session
	// runs — sleep past the last event inside Run if needed.
	Fault *FaultInjector
	// Scrub enables each node's background scrubber: whenever the LFS is
	// idle for Scrub.Interval of simulated time it verifies a budgeted run
	// of block checksums against the medium, in deterministic block order.
	// Confirmed corruption is invalidated from the node's cache, so the
	// next read surfaces ErrCorrupt and (for replicated files) read-repair.
	// Use &ScrubConfig{} for the defaults.
	Scrub *ScrubConfig
	// Obs enables virtual-time observability: every client operation opens
	// a trace whose spans flow through the server, LFS, and disk layers;
	// every message send, injected fault, disk crash and health change is
	// recorded as an event; latency histograms accumulate per op kind; and
	// a sampler records per-node queue depth and disk utilization at fixed
	// virtual intervals. Inspect with Session.Inspect() — WriteChromeTrace
	// dumps Chrome trace_event JSON (byte-identical across same-seed runs),
	// WriteTop a per-node text report. Use &ObsConfig{} for the defaults.
	// Observability charges no simulated time, so enabling it does not
	// perturb measured performance.
	Obs *ObsConfig
}

// System is a configured Bridge cluster, ready to Run.
type System struct {
	cfg Config
}

// New validates the configuration. A negative count or duration is an
// ErrBadArg naming the field.
func New(cfg Config) (*System, error) {
	for _, f := range []struct {
		name     string
		negative bool
	}{
		{"Nodes", cfg.Nodes < 0},
		{"Servers", cfg.Servers < 0},
		{"DiskBlocks", cfg.DiskBlocks < 0},
		{"Journal", cfg.Journal < 0},
		{"DiskLatency", cfg.DiskLatency < 0},
		{"LFSTimeout", cfg.LFSTimeout < 0},
		{"ReadAhead", cfg.ReadAhead < 0},
		{"WriteBehind", cfg.WriteBehind < 0},
	} {
		if f.negative {
			return nil, fmt.Errorf("%w: negative %s", ErrBadArg, f.name)
		}
	}
	if err := core.CheckGroup(cfg.Replicas, cfg.Health != nil, cfg.ReadAhead); err != nil {
		return nil, err
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	if cfg.DiskBlocks == 0 {
		cfg.DiskBlocks = 8192
	}
	if cfg.DiskLatency == 0 {
		cfg.DiskLatency = 15 * time.Millisecond
	}
	return &System{cfg: cfg}, nil
}

// Run boots the cluster, executes fn as a client process of the system,
// shuts the cluster down, drains the simulation and closes the DataDir
// stores. It returns fn's error, joined with why each directory member that
// halted itself did so (a consensus store this build cannot read, for
// one), or the simulation's error (for example a detected deadlock), or
// the error of closing a store.
func (s *System) Run(fn func(*Session) error) error {
	rt := sim.NewVirtual()
	var timing disk.TimingModel = disk.FixedTiming{Latency: s.cfg.DiskLatency}
	if s.cfg.Seek {
		timing = disk.WrenSeekRotate()
	}
	// Thread the fault injector's seed into the retry jitter, so a chaos
	// run is a pure function of one seed: retransmission timing replays
	// exactly along with the injected faults.
	retry := s.cfg.Retry
	if retry != nil && s.cfg.Fault != nil {
		p := retry.WithSeed(s.cfg.Fault.Seed(), "bridge.retry")
		retry = &p
	}
	// Replica election jitter joins the same single-seed determinism
	// contract: with a fault injector, its seed drives the elections too.
	var raftSeed int64
	if s.cfg.Fault != nil {
		raftSeed = s.cfg.Fault.Seed()
	}
	cl, err := core.StartCluster(rt, core.ClusterConfig{
		P: s.cfg.Nodes,
		Node: lfs.Config{
			DiskBlocks: s.cfg.DiskBlocks,
			Timing:     timing,
			Scrub:      s.cfg.Scrub,
			DiskDir:    s.cfg.DataDir,
			EFS:        efs.Options{JournalBlocks: s.cfg.Journal},
		},
		Servers:  s.cfg.Servers,
		Replicas: s.cfg.Replicas,
		RaftSeed: raftSeed,
		RaftDir:  s.cfg.DataDir,
		Server: core.Config{
			LFSTimeout:  s.cfg.LFSTimeout,
			LFSRetry:    retry,
			Health:      s.cfg.Health,
			ReadAhead:   s.cfg.ReadAhead,
			WriteBehind: s.cfg.WriteBehind,
		},
	})
	if err != nil {
		return err
	}
	var rec *obs.Recorder
	var obsStop *msg.Port
	if s.cfg.Obs != nil {
		ocfg := s.cfg.Obs.WithDefaults()
		rec = obs.NewRecorder(ocfg)
		cl.Net.SetRecorder(rec)
		for _, n := range cl.Nodes {
			n.Disk.SetRecorder(rec, int(n.ID))
		}
		obsStop = startSampler(rt, cl, rec, ocfg.SampleEvery)
	}
	if s.cfg.Fault != nil {
		s.cfg.Fault.SetRecorder(rec)
		s.cfg.Fault.AttachNetwork(cl.Net)
		for i, n := range cl.Nodes {
			s.cfg.Fault.AttachDisk(n.Disk, fmt.Sprintf("disk%d", i))
		}
		for i, d := range cl.RaftDisks() {
			if d != nil {
				s.cfg.Fault.AttachDisk(d, fmt.Sprintf("raftdisk%d", i))
			}
		}
		s.cfg.Fault.Drive(rt, cl)
		if cl.GroupSize() > 1 {
			s.cfg.Fault.DriveServers(rt, cl)
		}
	}
	var fnErr error
	rt.Go("bridge-session", func(proc sim.Proc) {
		defer cl.Stop()
		if obsStop != nil {
			defer obsStop.Close()
		}
		sess := &Session{
			proc: proc,
			cl:   cl,
			c:    cl.NewClient(proc, 0, "session"),
			rec:  rec,
			pdel: s.cfg.ParallelDelete,
		}
		if retry != nil {
			// A distinct stream label keeps the session's jitter sequence
			// independent of every server's.
			sess.c.SetRetry(retry.WithSeed(0, "bridge.session"))
		}
		defer sess.c.Close()
		fnErr = fn(sess)
		// Quiesce before the deferred Stop: flush every live volume so a
		// clean exit is as durable as an acknowledged Sync. Best-effort —
		// a node that cannot ack here is indistinguishable from one that
		// crashed at shutdown, and remount recovery already covers that.
		if fnErr == nil {
			_ = cl.SyncAll(proc) //bridgevet:allow syncerr — best-effort quiesce: an unacked node equals a crash at shutdown, and remount recovery covers that
		}
	})
	simErr := rt.Wait()
	closeErr := cl.Close()
	if fnErr != nil {
		if faults := cl.Faults(); faults != nil {
			return errors.Join(fnErr, faults)
		}
		return fnErr
	}
	if simErr != nil {
		return simErr
	}
	return closeErr
}

// Session is the handle user code gets inside Run. It wraps the naive
// Bridge client plus the standard tools; it is bound to the session process
// and must not be used concurrently.
type Session struct {
	proc sim.Proc
	cl   *core.Cluster
	c    *core.Client
	rec  *obs.Recorder // nil = observability off
	pdel bool          // Config.ParallelDelete
}

// startSampler runs the observability gauge sampler: every interval of
// virtual time it records each node's request-queue depth and the delta of
// its disk's busy time (as a utilization percentage). It charges no CPU, so
// sampling never perturbs the simulation's measured performance; it exits
// when the returned stop port closes.
func startSampler(rt sim.Runtime, cl *core.Cluster, rec *obs.Recorder, every time.Duration) *msg.Port {
	stop := cl.Net.NewPort(msg.Addr{Node: 0, Port: "obs.sampler.stop"})
	rt.Go("obs-sampler", func(p sim.Proc) {
		prevBusy := make([]time.Duration, len(cl.Nodes))
		for {
			if _, ok, timedOut := stop.RecvTimeout(p, every); !timedOut && !ok {
				return
			}
			at := p.Now()
			for i, n := range cl.Nodes {
				node := int(n.ID)
				rec.Sample(at, node, "queue_depth", int64(n.QueueLen()))
				busy := n.Disk.Stats().GetTime("disk.busy")
				delta := busy - prevBusy[i]
				prevBusy[i] = busy
				util := int64(0)
				if every > 0 {
					util = int64(delta * 100 / every)
				}
				rec.Sample(at, node, "disk_util_pct", util)
			}
		}
	})
	return stop
}

// Now returns the current simulated time.
func (s *Session) Now() time.Duration { return s.proc.Now() }

// Nodes returns the number of storage nodes.
func (s *Session) Nodes() int { return len(s.cl.Nodes) }

// Create creates an interleaved file across all nodes.
func (s *Session) Create(name string) error {
	_, err := s.c.Create(name)
	return err
}

// CreatePlaced creates a file with an explicit placement spec.
func (s *Session) CreatePlaced(name string, spec PlacementSpec) (FileInfo, error) {
	return s.c.CreateSpec(name, spec, false)
}

// CreateDisordered creates a linked-list file with arbitrarily scattered
// blocks (Section 3's "disordered files"): sequential access follows the
// chain; random access walks it and is very slow.
func (s *Session) CreateDisordered(name string) (FileInfo, error) {
	return s.c.CreateDisordered(name)
}

// Delete removes a file, returning the number of blocks freed. With
// Config.ParallelDelete it runs as a tool: the name is released in one
// server round and every node frees its own chain locally, in parallel.
func (s *Session) Delete(name string) (int, error) {
	if s.pdel {
		st, err := tools.Delete(s.proc, s.c, name)
		return st.Freed, err
	}
	return s.c.Delete(name)
}

// Rename atomically renames a file, returning its metadata under the new
// name. The target must not exist.
func (s *Session) Rename(name, newName string) (FileInfo, error) {
	return s.c.Rename(name, newName)
}

// Open opens a file and returns its structure; like the paper's open, it is
// a hint — there is no close.
func (s *Session) Open(name string) (FileInfo, error) { return s.c.Open(name) }

// Stat returns a file's metadata with a freshly computed size.
func (s *Session) Stat(name string) (FileInfo, error) { return s.c.Stat(name) }

// Append appends one block (payload up to PayloadBytes). The caller may
// reuse payload once the call returns.
func (s *Session) Append(name string, payload []byte) error {
	return s.c.SeqWrite(name, payload)
}

// Read returns the next block at this session's cursor; io-style, it
// returns ErrEOF at end of file.
func (s *Session) Read(name string) ([]byte, error) {
	data, eof, err := s.c.SeqRead(name)
	if err != nil {
		return nil, err
	}
	if eof {
		return nil, ErrEOF
	}
	return data, nil
}

// ReadN returns up to max blocks at this session's cursor in one request —
// the batched naive read, fanned out by the server across all constituent
// disks at once. Io-style, it returns ErrEOF once the cursor is at end of
// file.
func (s *Session) ReadN(name string, max int) ([][]byte, error) {
	blocks, eof, err := s.c.SeqReadN(name, max)
	if err != nil {
		return nil, err
	}
	if eof && len(blocks) == 0 {
		return nil, ErrEOF
	}
	return blocks, nil
}

// ReadAt reads block n.
func (s *Session) ReadAt(name string, n int64) ([]byte, error) { return s.c.ReadAt(name, n) }

// ReadAtN reads up to count consecutive blocks starting at block n in one
// request.
func (s *Session) ReadAtN(name string, n int64, count int) ([][]byte, error) {
	return s.c.ReadAtN(name, n, count)
}

// WriteAt writes block n (n == size appends). The caller may reuse payload
// once the call returns.
func (s *Session) WriteAt(name string, n int64, payload []byte) error {
	return s.c.WriteAt(name, n, payload)
}

// WriteAtN writes the payloads as consecutive blocks starting at block n
// (-1 appends), returning how many landed; on partial failure the file
// covers exactly the returned contiguous prefix. The caller may reuse the
// payloads once the call returns.
func (s *Session) WriteAtN(name string, n int64, payloads [][]byte) (int, error) {
	return s.c.WriteAtN(name, n, payloads)
}

// AppendN appends the payloads as consecutive blocks in one request. The
// caller may reuse the payloads once the call returns.
func (s *Session) AppendN(name string, payloads [][]byte) (int, error) {
	return s.c.AppendN(name, payloads)
}

// ReadAll reads the whole file from the beginning.
func (s *Session) ReadAll(name string) ([][]byte, error) {
	if _, err := s.c.Open(name); err != nil {
		return nil, err
	}
	var out [][]byte
	for {
		data, err := s.Read(name)
		if errors.Is(err, ErrEOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, data)
	}
}

// Copy runs the parallel copy tool: O(n/p + log p).
func (s *Session) Copy(src, dst string) (CopyStats, error) {
	return tools.Copy(s.proc, s.c, src, dst)
}

// Filter runs the copy tool with a one-to-one transformation.
func (s *Session) Filter(src, dst string, f Transform) (CopyStats, error) {
	return tools.Filter(s.proc, s.c, src, dst, f)
}

// Grep searches every block for the pattern, in parallel on the nodes.
func (s *Session) Grep(name string, pattern []byte) (GrepResult, error) {
	return tools.Grep(s.proc, s.c, name, pattern)
}

// WC counts bytes, words, and lines in parallel on the nodes.
func (s *Session) WC(name string) (WCResult, error) {
	return tools.WC(s.proc, s.c, name)
}

// Sort runs the parallel external merge sort tool (Figure 4's token-ring
// merge); records are whole blocks compared by their leading key bytes.
func (s *Session) Sort(src, dst string, opts SortOptions) (SortStats, error) {
	return tools.Sort(s.proc, s.c, src, dst, opts)
}

// NewMirror creates a 2-way replicated file.
func (s *Session) NewMirror(name string) (*Mirror, error) {
	return replica.CreateMirror(s.proc, s.c, name, s.Nodes())
}

// NewParity creates a parity-protected file (data on p-1 nodes, parity on
// the last).
func (s *Session) NewParity(name string) (*Parity, error) {
	return replica.CreateParity(s.proc, s.c, name, s.Nodes())
}

// FailNode simulates the crash of storage node i (0-based): its disk fails
// and its services stop answering. Operations touching it will time out
// with an error — the paper's "a failure anywhere in the system is fatal;
// it ruins every file", unless the file is mirrored or parity-protected.
func (s *Session) FailNode(i int) error {
	if i < 0 || i >= len(s.cl.Nodes) {
		return fmt.Errorf("bridge: no node %d", i)
	}
	s.cl.FailNode(i)
	return nil
}

// CrashNode power-fails storage node i (0-based) with kill-9 semantics:
// unlike FailNode, disk writes not yet covered by a sync barrier are lost —
// a seeded surviving prefix (and possibly one torn block) is chosen by the
// fault injector's crash model when one is attached, otherwise everything
// unsynced is dropped. RestartNode then remounts what survived; with
// Config.Journal set, the journal replays and Inspect().Recovery reports
// the outcome.
func (s *Session) CrashNode(i int) error {
	if i < 0 || i >= len(s.cl.Nodes) {
		return fmt.Errorf("bridge: no node %d", i)
	}
	s.cl.CrashNode(i, s.proc.Now())
	return nil
}

// RestartNode power-cycles a failed storage node: the disk returns with its
// surviving blocks and the LFS reboots by mounting the volume. File
// registrations the node had not synced are gone until RepairNode; lost
// replica blocks, and blocks diverted while the node was down, are restored
// by Mirror.Resilver or Parity.Rebuild (RS.Rebuild).
func (s *Session) RestartNode(i int) error {
	if i < 0 || i >= len(s.cl.Nodes) {
		return fmt.Errorf("bridge: no node %d", i)
	}
	s.cl.RestartNode(i)
	return nil
}

// RepairNode re-registers on a restarted node every file the directory says
// it should hold, returning how many were repaired. Run it after
// RestartNode and before replica-level repair.
func (s *Session) RepairNode(i int) (int, error) { return s.c.RepairNode(i) }

// Shards returns the number of directory shard groups (Config.Servers;
// 1 for a single server).
func (s *Session) Shards() int { return s.cl.NumShards() }

// ShardOf returns the shard group that owns file name — the stable hash
// the client routes by. Use it to aim chaos at the group serving a
// particular file, or to pick a rename target on the same shard.
func (s *Session) ShardOf(name string) int { return core.NameShard(name, s.cl.NumShards()) }

// CrashServer kills replica i (0-based within its group) of shard group
// shard with kill-9 semantics: its volatile state — write-behind buffers,
// requests in flight — vanishes, and its consensus disk drops unsynced
// writes. The shard's surviving majority elects a new leader and the
// session's client follows the redirects; other shards are untouched.
// With write-behind, acknowledged-but-unlanded appends surface
// ErrDeferredWrite exactly once after the failover, the same contract a
// flush failure has. Requires Config.Replicas.
func (s *Session) CrashServer(shard, i int) error {
	if err := s.checkReplica("CrashServer", shard, i); err != nil {
		return err
	}
	s.cl.CrashServer(shard, i, s.proc.Now())
	return nil
}

// RestartServer boots a fresh process for crashed replica i of shard
// group shard: it reloads its term, log, and snapshot from the surviving
// consensus state, rebuilds the shard's directory by replay, and rejoins
// its group as a follower.
func (s *Session) RestartServer(shard, i int) error {
	if err := s.checkReplica("RestartServer", shard, i); err != nil {
		return err
	}
	s.cl.RestartServer(shard, i)
	return nil
}

func (s *Session) checkReplica(op string, shard, i int) error {
	if s.cl.GroupSize() == 1 {
		return fmt.Errorf("bridge: %s requires Config.Replicas", op)
	}
	if shard < 0 || shard >= s.cl.NumShards() {
		return fmt.Errorf("bridge: no shard %d", shard)
	}
	if i < 0 || i >= s.cl.GroupSize() {
		return fmt.Errorf("bridge: no replica %d in shard %d", i, shard)
	}
	return nil
}

// LeaderServer returns the index within shard group shard of the replica
// currently leading with an authoritative directory, or -1 when none is
// (mid-election, or without Config.Replicas).
func (s *Session) LeaderServer(shard int) int {
	if s.cl.GroupSize() == 1 || shard < 0 || shard >= s.cl.NumShards() {
		return -1
	}
	return s.cl.LeaderServer(shard)
}

// Sync flushes every storage node's volume — a journal commit plus a disk
// barrier — making everything written so far durable: with Config.DataDir
// set, a later process that remounts the same directory recovers it. With
// Config.WriteBehind it first drains every buffered append, so Sync is the
// full barrier: once it returns, every acknowledged write is on the media.
// It is one FlushAll: each shard's server drains its buffers and then syncs
// every node in parallel, so a node is synced once per shard. Run also
// syncs on clean shutdown, so an explicit Sync is only needed to bound what
// a crash can lose mid-session.
func (s *Session) Sync() error {
	_, err := s.c.FlushAll()
	return err
}

// Flush drains one file's write-behind buffer and syncs its constituent
// nodes, returning how many buffered blocks it committed. A deferred
// write failure on the file surfaces here as ErrDeferredWrite. Without
// Config.WriteBehind it still syncs the nodes, so Flush is always a
// per-file durability barrier.
func (s *Session) Flush(name string) (int, error) { return s.c.Flush(name) }

// Fsck runs a full consistency check of storage node i's local file system
// — superblock, directory, bitmap, chain invariants, and block checksums —
// and returns the findings without modifying anything.
func (s *Session) Fsck(i int) (CheckReport, error) { return s.c.Fsck(i) }

// FsckRepair runs Fsck and repairs what it safely can (rebuilding the
// allocation bitmap from the reachable chains), returning the report and
// the number of fixes applied.
func (s *Session) FsckRepair(i int) (CheckReport, int, error) { return s.c.FsckRepair(i) }

// Scrub runs one full scrub sweep of storage node i synchronously and
// returns what it found. Corrupt blocks are invalidated from the node's
// cache so subsequent reads detect and (for replicated files) repair them;
// the sweep itself does not rewrite data. Independent of Config.Scrub.
func (s *Session) Scrub(i int) (ScrubReport, error) { return s.c.Scrub(i) }

// OpenMirror reopens an existing mirrored file.
func (s *Session) OpenMirror(name string) (*Mirror, error) {
	return replica.OpenMirror(s.proc, s.c, name)
}

// OpenParity reopens an existing parity-protected file.
func (s *Session) OpenParity(name string) (*Parity, error) {
	return replica.OpenParity(s.proc, s.c, name, s.Nodes())
}

// NewRS creates a Reed–Solomon erasure-coded file: data striped over
// opts.K nodes, opts.M parity columns on the next M nodes. Any M
// simultaneous losses remain readable, at (K+M)/K storage overhead —
// RS(6,2) costs 1.33x where Mirror costs 2x.
func (s *Session) NewRS(name string, opts RSOptions) (*RS, error) {
	return replica.CreateRS(s.proc, s.c, name, opts)
}

// OpenRS reopens an existing Reed–Solomon file; opts must match the
// geometry it was created with.
func (s *Session) OpenRS(name string, opts RSOptions) (*RS, error) {
	return replica.OpenRS(s.proc, s.c, name, opts)
}

// SetTimeout bounds each Bridge Server call from this session; failures
// then surface as errors after the timeout instead of at the server's
// default.
func (s *Session) SetTimeout(d time.Duration) { s.c.SetTimeout(d) }

// Client exposes the underlying Bridge client for advanced use (parallel
// open jobs, direct LFS access for custom tools). The returned client is
// bound to this session's process.
func (s *Session) Client() *core.Client { return s.c }

// Cluster exposes the running cluster (nodes, network, server address) for
// custom tools and experiments.
func (s *Session) Cluster() *core.Cluster { return s.cl }

// Proc exposes the session's process handle for spawning workers.
func (s *Session) Proc() sim.Proc { return s.proc }

// ParallelReadAll reads the whole file through a parallel-open job of
// width t: the second Bridge view, in which each read round moves t blocks
// to t worker processes at once. Blocks return in file order.
func (s *Session) ParallelReadAll(name string, t int) ([][]byte, error) {
	if t < 1 {
		return nil, fmt.Errorf("bridge: job width %d", t)
	}
	results := s.cl.Runtime().NewQueue(fmt.Sprintf("session.pra.%s.%d", name, t))
	workers := make([]msg.Addr, t)
	jws := make([]*core.JobWorker, t)
	for w := 0; w < t; w++ {
		jw := core.NewJobWorker(s.cl.Net, 0, fmt.Sprintf("session.praw.%s.%d.%d", name, t, w))
		jws[w] = jw
		workers[w] = jw.Addr()
		s.proc.Go(fmt.Sprintf("session-worker-%d", w), func(wp sim.Proc) {
			for {
				d, ok := jw.Next(wp)
				if !ok {
					return
				}
				if !d.EOF {
					results.Send(d)
				}
			}
		})
	}
	cleanup := func() {
		for _, jw := range jws {
			jw.Close()
		}
		results.Close()
	}
	job, err := s.c.ParallelOpen(name, workers)
	if err != nil {
		cleanup()
		return nil, err
	}
	blocks := make([][]byte, job.Meta.Blocks)
	for {
		delivered, eof, err := job.Read()
		if err != nil {
			cleanup()
			return nil, err
		}
		for i := 0; i < delivered; i++ {
			v, ok := results.Recv(s.proc)
			if !ok {
				cleanup()
				return nil, errors.New("bridge: worker queue closed")
			}
			d := v.(core.WorkerData)
			if d.Seq >= 0 && d.Seq < int64(len(blocks)) {
				blocks[d.Seq] = d.Data
			}
		}
		if eof {
			break
		}
	}
	err = job.Close()
	cleanup()
	return blocks, err
}

// ParallelAppend appends blocks through a parallel-open job of width t:
// worker w supplies blocks w, w+t, w+2t, ... round by round.
func (s *Session) ParallelAppend(name string, t int, blocks [][]byte) error {
	if t < 1 {
		return fmt.Errorf("bridge: job width %d", t)
	}
	workers := make([]msg.Addr, t)
	jws := make([]*core.JobWorker, t)
	for w := 0; w < t; w++ {
		w := w
		jw := core.NewJobWorker(s.cl.Net, 0, fmt.Sprintf("session.paw.%s.%d.%d", name, t, w))
		jws[w] = jw
		workers[w] = jw.Addr()
		s.proc.Go(fmt.Sprintf("session-supplier-%d", w), func(wp sim.Proc) {
			for r := 0; ; r++ {
				idx := r*t + w
				if idx >= len(blocks) {
					jw.Supply(wp, nil, true)
					return
				}
				if err := jw.Supply(wp, blocks[idx], false); err != nil {
					return
				}
			}
		})
	}
	cleanup := func() {
		for _, jw := range jws {
			jw.Close()
		}
	}
	job, err := s.c.ParallelOpen(name, workers)
	if err != nil {
		cleanup()
		return err
	}
	written := 0
	for written < len(blocks) {
		n, err := job.Write()
		if err != nil {
			cleanup()
			return err
		}
		written += n
		if n == 0 {
			break
		}
	}
	err = job.Close()
	cleanup()
	if err != nil {
		return err
	}
	if written != len(blocks) {
		return fmt.Errorf("bridge: parallel append wrote %d of %d blocks", written, len(blocks))
	}
	return nil
}

// ToolCtx is the per-node context a custom tool worker receives: the node,
// its index in the interleaving order, and a node-local LFS client.
type ToolCtx = tools.WorkerCtx

// RunTool exports fn to every storage node and gathers the per-node
// results in node order — the raw mechanism behind the standard tools,
// for building your own ("any process with knowledge of the middle-layer
// structure is a tool").
func (s *Session) RunTool(name string, fn func(ctx *ToolCtx) (any, error)) ([]any, error) {
	return tools.RunOnNodes(s.proc, s.cl.Net, s.cl.NodeIDs(), name, fn)
}

// MetricsSnapshot is a point-in-time image of the system's typed metrics:
// every registered counter, timer, and gauge (sorted by name), plus the
// per-op-kind latency histograms when observability is enabled.
type MetricsSnapshot struct {
	Values     []MetricValue
	Histograms []LatencyHistogram
}

// Counter returns the named counter's value (0 if unregistered).
func (m MetricsSnapshot) Counter(name string) int64 {
	for _, v := range m.Values {
		if v.Name == name {
			return v.Count
		}
	}
	return 0
}

// Timer returns the named timer's accumulated duration (0 if unregistered).
func (m MetricsSnapshot) Timer(name string) time.Duration {
	for _, v := range m.Values {
		if v.Name == name {
			return v.Time
		}
	}
	return 0
}

// Histogram returns the latency histogram for one op kind (for example
// "client.seqreadn" or "disk.read").
func (m MetricsSnapshot) Histogram(kind string) (LatencyHistogram, bool) {
	for _, h := range m.Histograms {
		if h.Kind == kind {
			return h, true
		}
	}
	return LatencyHistogram{}, false
}

// Metrics snapshots the system's typed metrics. Shorthand for
// Inspect().Metrics().
func (s *Session) Metrics() MetricsSnapshot { return s.Inspect().Metrics() }

// Inspector is the session's introspection surface: cluster structure,
// node health, metrics, and the recorded traces. All of it is read-only.
type Inspector struct {
	s *Session
}

// Inspect returns the session's introspection surface.
func (s *Session) Inspect() Inspector { return Inspector{s: s} }

// Info returns the cluster structure (the Get Info command).
func (i Inspector) Info() (ClusterInfo, error) { return i.s.c.GetInfo() }

// Health returns the monitored state of every storage node (requires
// Config.Health; without it all nodes report Healthy).
func (i Inspector) Health() ([]NodeHealth, error) { return i.s.c.Health() }

// Recovery returns storage node idx's boot recovery report: what the
// journal replayed on the last mount and the fsck that verified the
// result. It fails with ErrNotFound when the node was freshly formatted
// or has no journal (Config.Journal unset).
func (i Inspector) Recovery(idx int) (RecoveryReport, error) { return i.s.c.Recovery(idx) }

// Raft returns the consensus state of every replica in shard group shard
// — role, term, commit and last log index, known leader — in
// group-member order. Nil without Config.Replicas or for an out-of-range
// shard. A crashed replica reports the state it died with.
func (i Inspector) Raft(shard int) []RaftStatus {
	cl := i.s.cl
	r := cl.GroupSize()
	if r == 1 || shard < 0 || shard >= cl.NumShards() {
		return nil
	}
	out := make([]RaftStatus, r)
	for j := range out {
		out[j] = cl.Servers[shard*r+j].RaftStatus()
	}
	return out
}

// Metrics snapshots every typed metric on the cluster's shared registry,
// plus the per-op-kind latency histograms when Config.Obs is set. Metric
// reads are atomic; the snapshot is safe to take while the system runs.
func (i Inspector) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		Values:     i.s.cl.Net.Stats().Registry().Values(),
		Histograms: i.s.rec.Histograms(),
	}
}

// WriteChromeTrace writes the recorded op spans, events, and gauge samples
// as Chrome trace_event JSON — load it in about://tracing or Perfetto.
// Requires Config.Obs; the output is byte-identical across same-seed runs.
func (i Inspector) WriteChromeTrace(w io.Writer) error {
	return i.s.rec.WriteChromeTrace(w)
}

// WriteTop writes a plain-text per-node report: span and error counts,
// disk busy time and utilization, queue-depth statistics, and the latency
// histograms. Requires Config.Obs; deterministic across same-seed runs.
func (i Inspector) WriteTop(w io.Writer) error { return i.s.rec.WriteTop(w) }

// Spans returns the completed op spans in creation order (nil without
// Config.Obs). An Inspector captured inside Run stays valid after Run
// returns, when the simulation has drained and every span has closed —
// the right time to export traces or audit span lifecycles.
func (i Inspector) Spans() []OpSpan { return i.s.rec.Spans() }

// OpenSpans returns the number of spans started but never ended. After a
// drained run it is zero if every operation closed its span exactly once.
func (i Inspector) OpenSpans() int { return i.s.rec.OpenSpans() }

// DoubleEnds returns the number of span End calls that had no matching
// open span — always zero unless a layer closes a span twice.
func (i Inspector) DoubleEnds() int { return i.s.rec.DoubleEnds() }

// DroppedSpans returns the number of spans whose payload was dropped
// because the recorder hit ObsConfig.SpanCap; their lifecycle is still
// tracked by OpenSpans and DoubleEnds.
func (i Inspector) DroppedSpans() int { return i.s.rec.DroppedSpans() }

// WriteMetricsDoc generates the metrics reference (metrics.md): every
// typed metric a booted system registers, with kind, unit, and help text.
// It boots a small throwaway cluster so each layer's registrations run.
func WriteMetricsDoc(w io.Writer) error {
	// Journal on, so the journaling and recovery metrics register too;
	// two replicated shard groups, so the consensus metrics and the
	// per-shard counters register.
	sys, err := New(Config{Nodes: 2, DiskBlocks: 128, Journal: 16, Servers: 2, Replicas: 3})
	if err != nil {
		return err
	}
	var sets [][]MetricValue
	err = sys.Run(func(s *Session) error {
		// One real operation, so every node finishes booting (Format
		// registers the journal metrics) before the snapshot.
		if err := s.Create("metricsdoc"); err != nil {
			return err
		}
		reg := s.cl.Net.Stats().Registry()
		replica.RegisterMetrics(reg)
		tools.RegisterMetrics(reg)
		sets = append(sets, reg.Values(), s.cl.Nodes[0].Disk.Stats().Registry().Values())
		return nil
	})
	if err != nil {
		return err
	}
	sets = append(sets, fault.New(0).Stats().Registry().Values())
	return obs.WriteDoc(w, sets...)
}

// The commit seam: the Bridge Server's directory as a state machine, and
// the optional Raft membership it is plugged into.
//
// Every directory mutation — in either mode — is validated against the
// current state, described as a log operation (rop) carrying everything
// needed to re-apply it, and handed to commit. apply is the only code that
// changes directory membership, the id counter, and cursors. A group of one
// commits by applying inline: no consensus node, no encoding, no message.
// A member of a replicated group proposes the operation through raft and
// applies it — exactly as every follower does — once it commits; only then
// does the leader execute the LFS side effects and reply. Client requests
// and consensus traffic share the member's address, and its request loop
// type-switches between them.
//
// Because ops carry their payloads, LFS effects are re-executable from the
// log alone: a fresh leader first re-runs the effects of every committed
// entry it still retains (creates tolerate exists, deletes tolerate
// not-found, writes land the same bytes at the same absolute blocks), so
// an entry the dead leader committed but never acted on is made real
// before any new request is served. Snapshots carry the recent effect tail
// (rsnap.Pending) so compaction never destroys an entry whose effect might
// still be owed.
//
// Exactly-once semantics ride the log too: the reply-relevant outcome of
// every OpID-carrying operation is recorded in a replicated op table
// during apply, so a client retransmission — to the same leader or to its
// successor — heals the recorded reply instead of re-running the mutation.
// (A group of one has no successor; its volatile client sessions in
// dispatch do that job.)
//
// DESIGN.md's feature × group-size table lists what a replicated group
// rejects; a failover while a file has dirty write-behind state surfaces
// ErrDeferredWrite conservatively (acknowledged blocks beyond the durable
// prefix roll back).
package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/raft"
	"bridge/internal/sim"
)

const (
	// raftSnapshotEvery triggers log compaction once the retained log
	// grows past this many entries.
	raftSnapshotEvery = 48
	// raftPendingFx is how many recent effect-carrying ops a snapshot
	// retains for takeover replay. Serial request handling leaves at most
	// one committed-but-uneffected entry per leadership, so this covers
	// many consecutive failed takeovers.
	raftPendingFx = 8
	// raftCommitBound bounds how long a leader waits for one of its own
	// entries to commit before telling the client to retry elsewhere.
	raftCommitBound = 900 * time.Millisecond
)

// rop is one directory operation: what commit takes and apply consumes, and
// a replicated log entry's payload (logcodec.go is its encoding).
type rop struct {
	Kind   uint8
	Client msg.Addr // requesting client, for cursors and the replicated op table
	Op     uint64   // client OpID; 0 = not recorded
	Name   string
	New    string   // rename target
	Meta   Meta     // create: the fully resolved metadata
	NextID uint32   // create: id counter value after allocation
	At     int64    // write/read start block
	N      int      // block count / marker flag
	Data   [][]byte // write payloads (logged appends)
	Blocks int64    // size watermark for markers and fixups
	EOF    bool     // seqread: reply hit end of file
	ErrS   string   // deferred-error text riding the log
}

// rop kinds.
const (
	ropCreate uint8 = iota + 1
	ropDelete
	ropRename
	ropRelease
	ropOpen
	ropWrite
	ropSeqRead
	ropWBDirty   // file entered write-behind buffering at committed size Blocks
	ropWBFlushed // durable prefix advanced to Blocks (N=1: fully drained)
	ropWBFail    // rollback to Blocks; ErrS surfaces (to Op, or arms deferred)
	ropWBClear   // deferred error consumed by operation Op
	ropFixup     // effect failed after commit: size corrected (Blocks<0: file removed)
)

// ropRec is the replicated record of a completed operation, enough to
// rebuild its reply for a retransmission.
type ropRec struct {
	Kind uint8
	EOF  bool
	Name string
	Meta *Meta // what a healed Create, Rename or Release answers with; nil otherwise
	At   int64
	N    int
	ErrS string
}

// meta is the recorded metadata, zero when the operation recorded none.
func (r *ropRec) meta() Meta {
	if r.Meta == nil {
		return Meta{}
	}
	return *r.Meta
}

type opKey struct {
	Client msg.Addr
	Op     uint64
}

// clientOps indexes the op table by client: the highest op id recorded for
// it, and how many of its records the table holds.
type clientOps struct{ top, n uint64 }

// rsnap is the state-machine snapshot installed on members that fall behind
// compaction. Slices are sorted so identical states encode identically.
type rsnap struct {
	NextID  uint32
	Files   []rsnapFile
	Cursors []rsnapCursor
	Ops     []rsnapOp // FIFO order
	Pending []rop     // recent effect-carrying ops, for takeover replay
}

type rsnapFile struct {
	Meta     Meta // Blocks normalized to the committed watermark
	WBDirty  bool
	Deferred string
}

type rsnapCursor struct {
	Client msg.Addr
	Name   string
	Pos    int64
}

type rsnapOp struct {
	Client msg.Addr
	Op     uint64
	Rec    ropRec
}

// raftMetrics are the replicated groups' typed metric handles, registered
// once on the network's shared registry.
type raftMetrics struct {
	elections    obs.Counter
	leaderWins   obs.Counter
	stepDowns    obs.Counter
	committed    obs.Counter
	appendsSent  obs.Counter
	appendRejs   obs.Counter
	snapInstalls obs.Counter
	redirects    obs.Counter
	heals        obs.Counter
	proposals    obs.Counter
	commitWait   obs.Timer
}

func newRaftMetrics(r *obs.Registry) raftMetrics {
	return raftMetrics{
		elections:    r.Counter("bridge.raft_elections", "elections", "Leader elections started by any replica."),
		leaderWins:   r.Counter("bridge.raft_leader_wins", "wins", "Elections won: leadership changes across the replica set."),
		stepDowns:    r.Counter("bridge.raft_stepdowns", "stepdowns", "Leaderships lost to a higher term or lost quorum."),
		committed:    r.Counter("bridge.raft_entries_committed", "entries", "Replicated log entries delivered to replica state machines."),
		appendsSent:  r.Counter("bridge.raft_appends_sent", "messages", "AppendEntries requests leaders sent, entries and heartbeats; steady replication sends one per follower per entry."),
		appendRejs:   r.Counter("bridge.raft_append_rejects", "messages", "AppendEntries rejections leaders received: a lost, overtaken or conflicting request the follower asked to have resent."),
		snapInstalls: r.Counter("bridge.raft_snap_installs", "snapshots", "State-machine snapshots installed on lagging replicas."),
		redirects:    r.Counter("bridge.raft_notleader_redirects", "requests", "Client requests answered with a not-leader redirect."),
		heals:        r.Counter("bridge.raft_heals", "requests", "Retransmitted operations healed from the replicated op table."),
		proposals:    r.Counter("bridge.raft_proposals", "entries", "Directory operations proposed into the replicated log."),
		commitWait:   r.Timer("bridge.raft_commit_wait", "Virtual time leaders spent waiting for their own entries to commit."),
	}
}

// shardMetrics are one shard group's typed metric handles, named by shard
// index so a sharded directory's load balance and per-group consensus
// traffic are visible side by side. Registration is idempotent, so the
// group's members share one set of counters.
type shardMetrics struct {
	requests  obs.Counter
	committed obs.Counter
}

func newShardMetrics(r *obs.Registry, shard int) shardMetrics {
	return shardMetrics{
		requests: r.Counter(fmt.Sprintf("bridge.shard%d_requests", shard), "requests",
			fmt.Sprintf("Client requests received by shard group %d's replicas (including not-leader redirects).", shard)),
		committed: r.Counter(fmt.Sprintf("bridge.shard%d_entries_committed", shard), "entries",
			fmt.Sprintf("Replicated log entries committed by shard group %d.", shard)),
	}
}

// memberSpec wires one server into its replicated group.
type memberSpec struct {
	// id is this member's index within its shard group; peers maps every
	// group-member id to its request/consensus address.
	id    int
	peers []msg.Addr
	// shard is the directory shard group the member belongs to. Groups are
	// independent Raft instances over disjoint peer sets; the shard index
	// names the group in metrics, introspection, and fault schedules.
	shard int
	// seed drives the member's jittered election timeouts; derived per
	// member so elections never tie.
	seed int64
	// store persists the consensus state across restarts. Restarting a
	// killed member with the same spec reloads its log and term from it,
	// and the state machine rebuilds by replay.
	store raft.Store
}

// member is a server's membership of a replicated group: the consensus
// node and everything a successor needs that the directory itself does not
// hold. A group of one has none (Server.grp is nil), so the methods apply
// calls are nil-safe: with no successor there is no failover state to keep.
type member struct {
	node *raft.Node
	spec memberSpec
	rm   raftMetrics
	sm   shardMetrics

	// Replicated state beyond the directory: the op table (exactly-once
	// replies), write-behind watermarks, armed deferred errors, and the
	// recent effect tail.
	ops      map[opKey]*ropRec
	opQ      []opKey
	tops     map[msg.Addr]clientOps // per client in ops, for admit's stale check
	wbLow    map[string]int64       // committed durable size of wb-dirty files
	deferred map[string]string      // failover-armed deferred-write errors
	recentFx []rop                  // last raftPendingFx effect-carrying ops

	applied  uint64 // last log index applied to the state machine
	tookOver bool   // this leadership already replayed owed effects

	parked  []*msg.Message // client requests held while an entry commits
	enc     []byte         // log-entry encode scratch, reused across commits
	snapCap int            // capacity hint for the next snapshot
	ports   portTab        // client port names shared by decoded ops
	dead    atomic.Bool
	fault   error        // why the member halted itself; set before dead
	tall    raft.Tallies // last tallies diffed into the metrics
}

// halt kills a member that can no longer follow its group: its consensus
// store failed, or a committed record did not decode and applying past it
// would fork this directory from its peers'.
func (g *member) halt(err error) {
	g.fault = err
	g.dead.Store(true)
}

func newMember(net *msg.Network, spec memberSpec) *member {
	peerIDs := make([]int, len(spec.peers))
	for i := range spec.peers {
		peerIDs[i] = i
	}
	return &member{
		node: raft.New(raft.Config{
			ID:    spec.id,
			Peers: peerIDs,
			Seed:  spec.seed,
			Store: spec.store,
		}),
		spec:     spec,
		rm:       newRaftMetrics(net.Stats().Registry()),
		sm:       newShardMetrics(net.Stats().Registry(), spec.shard),
		ops:      make(map[opKey]*ropRec),
		tops:     make(map[msg.Addr]clientOps),
		ports:    make(portTab),
		wbLow:    make(map[string]int64),
		deferred: make(map[string]string),
	}
}

// RaftStatus returns a snapshot of the server's consensus state (the zero
// Status for a group of one).
func (s *Server) RaftStatus() raft.Status {
	if s.grp == nil {
		return raft.Status{}
	}
	return s.grp.node.Status()
}

// IsLeader reports whether this server's directory view is authoritative:
// always for a group of one; for a member, when it leads and has committed
// an entry of its own term.
func (s *Server) IsLeader() bool {
	return s.grp == nil || !s.grp.dead.Load() && s.grp.node.ReadyToLead()
}

// Fault reports why a member halted itself: nil while it runs, after a
// crash from outside, and for a group of one.
func (s *Server) Fault() error {
	if s.grp == nil || !s.grp.dead.Load() {
		return nil
	}
	return s.grp.fault
}

// crashed reports whether a member was killed; its loop exits at the next
// step and nothing more is sent.
func (s *Server) crashed() bool { return s.grp != nil && s.grp.dead.Load() }

// loadLog reloads a member's consensus state from its store before the
// first request. False means the store is unreadable (disk down): the
// member stays dead.
func (s *Server) loadLog(p sim.Proc) bool {
	g := s.grp
	if g == nil {
		return true
	}
	snap, err := g.node.Load(p, p.Now())
	if err == nil && snap != nil {
		err = s.restore(snap)
	}
	if err != nil {
		g.halt(fmt.Errorf("bridge: load replicated log: %w", err))
		return false
	}
	g.applied = g.node.Status().SnapIndex
	return true
}

// next returns the next client request. A group of one blocks on its port
// and never arms a timer. A member first re-serves requests parked during
// a commit, and otherwise waits out its consensus deadline, ticking the
// node and stepping consensus traffic until a client request arrives.
func (s *Server) next(p sim.Proc) (*msg.Message, bool) {
	g := s.grp
	if g == nil {
		return s.port.Recv(p)
	}
	for !g.dead.Load() {
		if len(g.parked) > 0 {
			m := g.parked[0]
			g.parked = g.parked[1:]
			return m, true
		}
		wait := g.node.Deadline() - p.Now()
		if wait < 0 {
			wait = 0
		}
		m, ok, timedOut := s.port.RecvTimeout(p, wait)
		if !ok && !timedOut {
			g.dead.Store(true)
			break
		}
		if g.dead.Load() {
			break
		}
		g.node.Tick(p.Now())
		if m != nil && !raft.IsMessage(m.Body) {
			return m, true
		}
		if m != nil {
			g.node.Step(m.Body, p.Now())
		}
		s.pump(p)
	}
	return nil, false
}

// pump drains a member's consensus node: installs snapshots, applies
// committed entries, compacts, persists, and transmits. A group of one has
// nothing to pump.
func (s *Server) pump(p sim.Proc) {
	g := s.grp
	if g == nil {
		return
	}
	for {
		if inst := g.node.TakeInstalled(); inst != nil {
			if err := s.restore(inst.Data); err != nil {
				g.halt(fmt.Errorf("bridge: install snapshot through entry %d: %w", inst.Index, err))
				return
			}
			g.applied = inst.Index
			continue
		}
		ents := g.node.TakeCommitted()
		if len(ents) == 0 {
			break
		}
		for _, e := range ents {
			if e.Data != nil {
				op, err := decodeRop(e.Data, g.ports)
				if err != nil {
					g.halt(fmt.Errorf("bridge: committed log entry %d: %w", e.Index, err))
					return
				}
				s.apply(op)
			}
			g.applied = e.Index
		}
	}
	if g.node.Status().Role != raft.Leader {
		g.tookOver = false
	}
	s.maybeCompact()
	out, err := g.node.Flush(p)
	if err != nil {
		// The consensus store failed (disk crash): the member is dead.
		g.halt(fmt.Errorf("bridge: persist replicated log: %w", err))
		return
	}
	for _, o := range out {
		if o.To == g.spec.id || o.To < 0 || o.To >= len(g.spec.peers) {
			continue
		}
		_ = s.net.Send(p, s.cfg.Node, g.spec.peers[o.To], &msg.Message{
			From: s.port.Addr(),
			Body: o.Msg,
			Size: o.Size,
		})
	}
	g.syncMetrics()
}

func (s *Server) maybeCompact() {
	g := s.grp
	st := g.node.Status()
	if st.LastIndex-st.SnapIndex < raftSnapshotEvery || g.applied <= st.SnapIndex {
		return
	}
	// The snapshot is the state through g.applied; rsnap.Pending keeps
	// the effect tail alive across the compaction.
	g.node.Compact(g.applied, s.encodeSnapshot())
}

func (g *member) syncMetrics() {
	t, was := g.node.Tallies(), g.tall
	g.tall = t
	g.rm.elections.Add(t.Elections - was.Elections)
	g.rm.leaderWins.Add(t.LeaderWins - was.LeaderWins)
	g.rm.stepDowns.Add(t.StepDowns - was.StepDowns)
	g.rm.committed.Add(t.Committed - was.Committed)
	g.rm.snapInstalls.Add(t.SnapInstalls - was.SnapInstalls)
	g.rm.appendsSent.Add(t.AppendsSent - was.AppendsSent)
	g.rm.appendRejs.Add(t.AppendRejects - was.AppendRejects)
	g.sm.committed.Add(t.Committed - was.Committed)
}

// ---- the directory state machine ----

// record stores an operation's outcome in the replicated op table (FIFO
// bounded by dedupCap records), with a copy of meta when the healed reply
// carries metadata. Only a recording member allocates.
func (g *member) record(op rop, rec ropRec, meta *Meta) {
	if g == nil || op.Op == 0 {
		return
	}
	kept := rec
	if meta != nil {
		m := *meta
		kept.Meta = &m
	}
	k := opKey{Client: op.Client, Op: op.Op}
	if _, exists := g.ops[k]; !exists {
		if len(g.opQ) >= dedupCap {
			g.forget(g.opQ[0])
			g.opQ = g.opQ[1:]
		}
		g.keep(k)
	}
	g.ops[k] = &kept
}

// keep queues record k, and counts it for its client.
func (g *member) keep(k opKey) {
	g.opQ = append(g.opQ, k)
	t := g.tops[k.Client]
	g.tops[k.Client] = clientOps{max(t.top, k.Op), t.n + 1}
}

// forget drops record k from the op table and its client's count.
func (g *member) forget(k opKey) {
	delete(g.ops, k)
	if t := g.tops[k.Client]; t.n > 1 {
		g.tops[k.Client] = clientOps{t.top, t.n - 1}
	} else {
		delete(g.tops, k.Client)
	}
}

// recorded reports whether the op table holds client's operation op.
func (g *member) recorded(client msg.Addr, op uint64) bool {
	if g == nil || op == 0 {
		return false
	}
	_, hit := g.ops[opKey{Client: client, Op: op}]
	return hit
}

func (g *member) unrecord(client msg.Addr, op uint64) {
	if g == nil || op == 0 {
		return
	}
	k := opKey{Client: client, Op: op}
	if i := slices.Index(g.opQ, k); i >= 0 {
		g.forget(k)
		g.opQ = slices.Delete(g.opQ, i, i+1)
	}
}

// noteFx keeps op in the recent effect tail a takeover replays.
func (g *member) noteFx(op rop) {
	if g == nil {
		return
	}
	if len(g.recentFx) == raftPendingFx {
		// Shift in place: re-slicing forward would walk the tail off its
		// backing array and reallocate it every few ops.
		copy(g.recentFx, g.recentFx[1:])
		g.recentFx = g.recentFx[:raftPendingFx-1]
	}
	g.recentFx = append(g.recentFx, op)
}

// moveFile re-keys (to != "") or clears (to == "") the per-file
// write-behind watermark and armed deferred error when a file is renamed
// or leaves the directory.
func (g *member) moveFile(name, to string) {
	if g == nil {
		return
	}
	low, dirty := g.wbLow[name]
	text, armed := g.deferred[name]
	delete(g.wbLow, name)
	delete(g.deferred, name)
	if to == "" {
		return
	}
	if dirty {
		g.wbLow[to] = low
	}
	if armed {
		g.deferred[to] = text
	}
}

// dirty reports the committed durable size of a file the log marks as
// write-behind dirty. A group of one logs no markers, so nothing is.
func (g *member) dirty(name string) (int64, bool) {
	if g == nil {
		return 0, false
	}
	low, dirty := g.wbLow[name]
	return low, dirty
}

// unregister removes a file and its cursors from the directory.
func (s *Server) unregister(name string) {
	delete(s.dir, name)
	for k := range s.cursors {
		if k.name == name {
			delete(s.cursors, k)
		}
	}
	s.grp.moveFile(name, "")
}

// apply is the deterministic state transition, and the only code that
// changes directory membership, the id counter, and cursor existence or
// position. A group of one runs it inline from commit; every member of a
// replicated group runs it with the same ops in the same order and ends in
// the same state. It touches no I/O — LFS effects are the serving
// server's job, after commit.
func (s *Server) apply(op rop) {
	g := s.grp
	switch op.Kind {
	case ropCreate:
		s.nextID = op.NextID
		// A file on the cluster's first P nodes in order — any placed
		// without a Subset — shares the server's list, never written,
		// rather than holding a copy of its own.
		if n := len(op.Meta.Nodes); n <= len(s.nodes) && slices.Equal(op.Meta.Nodes, s.nodes[:n]) {
			op.Meta.Nodes = s.nodes[:n:n]
		}
		s.dir[op.Meta.Name] = &dirent{meta: op.Meta, hints: make(map[msg.NodeID]int32)}
		g.record(op, ropRec{Kind: op.Kind, Name: op.Name}, &op.Meta)
		g.noteFx(op)
	case ropDelete, ropRelease:
		var meta *Meta
		if ent, ok := s.dir[op.Name]; ok {
			if op.Kind == ropRelease {
				// A healed Release answers with the metadata; a healed
				// Delete answers with nothing, so its record holds none.
				meta = &ent.meta
			}
			s.unregister(op.Name)
		}
		g.record(op, ropRec{Kind: op.Kind, Name: op.Name}, meta)
		if op.Kind == ropDelete {
			g.noteFx(op)
		}
	case ropRename:
		ent, ok := s.dir[op.Name]
		if !ok {
			g.record(op, ropRec{Kind: op.Kind, Name: op.New}, nil)
			break
		}
		delete(s.dir, op.Name)
		ent.meta.Name = op.New
		s.dir[op.New] = ent
		// Re-key open cursors so sequential readers keep their position.
		for k, c := range s.cursors {
			if k.name == op.Name {
				delete(s.cursors, k)
				nk := k
				nk.name = op.New
				s.cursors[nk] = c
			}
		}
		g.moveFile(op.Name, op.New)
		g.record(op, ropRec{Kind: op.Kind, Name: op.New}, &ent.meta)
	case ropOpen:
		if _, ok := s.dir[op.Name]; ok {
			s.cursors[cursorKey{client: op.Client, name: op.Name}] = &cursor{}
		}
	case ropWrite:
		ent, ok := s.dir[op.Name]
		if !ok {
			break
		}
		if end := op.At + int64(op.N); end > ent.meta.Blocks {
			ent.meta.Blocks = end
		}
		g.record(op, ropRec{Kind: op.Kind, Name: op.Name, At: op.At, N: op.N}, nil)
		g.noteFx(op)
	case ropSeqRead:
		if _, ok := s.dir[op.Name]; !ok {
			break
		}
		key := cursorKey{client: op.Client, name: op.Name}
		cur := s.cursors[key]
		if cur == nil {
			cur = &cursor{}
			s.cursors[key] = cur
		}
		cur.readPos = op.At + int64(op.N)
		g.record(op, ropRec{Kind: op.Kind, Name: op.Name, At: op.At, N: op.N, EOF: op.EOF}, nil)
	case ropWBDirty:
		if _, ok := s.dir[op.Name]; ok {
			g.wbLow[op.Name] = op.Blocks
		}
	case ropWBFlushed:
		ent, ok := s.dir[op.Name]
		if !ok {
			break
		}
		// max: on the leader the size already covers acknowledged
		// buffered blocks; followers catch up to the durable watermark.
		if op.Blocks > ent.meta.Blocks {
			ent.meta.Blocks = op.Blocks
		}
		if op.N == 1 {
			delete(g.wbLow, op.Name)
		} else {
			g.wbLow[op.Name] = op.Blocks
		}
	case ropWBFail:
		ent, ok := s.dir[op.Name]
		if !ok {
			break
		}
		ent.meta.Blocks = op.Blocks
		delete(g.wbLow, op.Name)
		if op.Op != 0 {
			// The failing operation consumes the error itself; record it
			// so a retransmission replays the same failure.
			g.record(op, ropRec{Kind: op.Kind, Name: op.Name, ErrS: op.ErrS}, nil)
		} else {
			g.deferred[op.Name] = op.ErrS
		}
	case ropWBClear:
		delete(g.deferred, op.Name)
		g.record(op, ropRec{Kind: op.Kind, Name: op.Name, ErrS: op.ErrS}, nil)
	case ropFixup:
		if ent, ok := s.dir[op.Name]; ok {
			if op.Blocks < 0 {
				s.unregister(op.Name)
			} else {
				ent.meta.Blocks = op.Blocks
			}
		}
		// The op the fixup corrects failed: forget its record so a
		// retransmission re-executes instead of healing a stale reply.
		g.unrecord(op.Client, op.Op)
	}
}

// encodeSnapshot captures the replicated state machine. Identical states
// encode to identical bytes (sorted slices, no maps).
func (s *Server) encodeSnapshot() []byte {
	g := s.grp
	snap := rsnap{
		NextID: s.nextID,
		Files:  make([]rsnapFile, 0, len(s.dir)),
	}
	for _, name := range s.sortedNames() {
		f := rsnapFile{Meta: s.dir[name].meta}
		if low, dirty := g.wbLow[name]; dirty {
			f.WBDirty = true
			f.Meta.Blocks = low
		}
		f.Deferred = g.deferred[name]
		snap.Files = append(snap.Files, f)
	}
	for k, c := range s.cursors {
		snap.Cursors = append(snap.Cursors, rsnapCursor{Client: k.client, Name: k.name, Pos: c.readPos})
	}
	sort.Slice(snap.Cursors, func(i, j int) bool {
		a, b := snap.Cursors[i], snap.Cursors[j]
		if a.Client.Node != b.Client.Node {
			return a.Client.Node < b.Client.Node
		}
		if a.Client.Port != b.Client.Port {
			return a.Client.Port < b.Client.Port
		}
		return a.Name < b.Name
	})
	// Sized from the last snapshot plus room for the op table to have
	// grown: no scratch buffer of snapshot size stays live between them.
	buf := appendSnapHead(make([]byte, 0, g.snapCap), &snap)
	buf = appendOpTable(buf, g.opQ, g.ops)
	buf = appendSnapPending(buf, g.recentFx)
	g.snapCap = len(buf) + len(buf)/8
	return buf
}

// restore resets the state machine to a snapshot; bytes that are not one
// leave it untouched.
func (s *Server) restore(data []byte) error {
	snap, err := decodeSnap(data, s.grp.ports)
	if err != nil {
		return err
	}
	g := s.grp
	s.dir = make(map[string]*dirent)
	s.cursors = make(map[cursorKey]*cursor)
	s.nextID = snap.NextID
	g.ops = make(map[opKey]*ropRec, len(snap.Ops))
	g.opQ = g.opQ[:0]
	g.tops = make(map[msg.Addr]clientOps)
	g.wbLow = make(map[string]int64)
	g.deferred = make(map[string]string)
	for _, f := range snap.Files {
		s.dir[f.Meta.Name] = &dirent{meta: f.Meta, hints: make(map[msg.NodeID]int32)}
		if f.WBDirty {
			g.wbLow[f.Meta.Name] = f.Meta.Blocks
		}
		if f.Deferred != "" {
			g.deferred[f.Meta.Name] = f.Deferred
		}
	}
	for _, c := range snap.Cursors {
		s.cursors[cursorKey{client: c.Client, name: c.Name}] = &cursor{readPos: c.Pos}
	}
	for i := range snap.Ops {
		o := &snap.Ops[i]
		g.keep(opKey{Client: o.Client, Op: o.Op})
		g.ops[opKey{Client: o.Client, Op: o.Op}] = &o.Rec
	}
	g.recentFx = snap.Pending
	// Volatile leader-side buffers never survive a snapshot install; a
	// deposed leader's windows are dropped, not taken (the takeover
	// reconciles what landed), so nothing of them parks in s.lc.
	if s.wb != nil {
		for _, e := range s.wb.armed {
			e.st.Drop()
		}
		s.wb = newWBCache(s.cfg.WriteBehind)
	}
	g.tookOver = false
	return nil
}

// ---- the seam ----

func (s *Server) notLeaderError() error {
	return fmt.Errorf("%w (leader=%d)", ErrNotLeader, s.grp.node.LeaderHint())
}

// lease refuses to answer from directory state a member can no longer
// prove current. A group of one is always its own leader.
func (s *Server) lease(p sim.Proc) error {
	if g := s.grp; g != nil && !g.node.LeaseValid(p.Now()) {
		return s.notLeaderError()
	}
	return nil
}

// commit makes op part of the directory. A group of one applies it inline.
// A member proposes it and waits until it applies here, pumping consensus
// traffic and parking client requests meanwhile; an error means leadership
// was lost first — the client retries, and the op table makes the retry
// safe.
func (s *Server) commit(p sim.Proc, op rop) error {
	g := s.grp
	if g == nil {
		s.apply(op)
		return nil
	}
	g.enc = appendRop(g.enc[:0], &op)
	idx, term, ok := g.node.Propose(bytes.Clone(g.enc), p.Now())
	if !ok {
		return s.notLeaderError()
	}
	g.rm.proposals.Add(1)
	start := p.Now()
	s.pump(p)
	for g.applied < idx {
		if g.dead.Load() {
			return s.notLeaderError()
		}
		st := g.node.Status()
		if st.Term != term || st.Role != raft.Leader {
			return s.notLeaderError()
		}
		if p.Now()-start > raftCommitBound {
			return s.notLeaderError()
		}
		wait := g.node.Deadline() - p.Now()
		if wait < 0 {
			wait = 0
		}
		m, ok2, timedOut := s.port.RecvTimeout(p, wait)
		if !ok2 && !timedOut {
			g.dead.Store(true)
			return s.notLeaderError()
		}
		g.node.Tick(p.Now())
		if m != nil {
			if raft.IsMessage(m.Body) {
				g.node.Step(m.Body, p.Now())
			} else {
				g.parked = append(g.parked, m)
			}
		}
		s.pump(p)
	}
	if g.node.Status().Term != term {
		return s.notLeaderError()
	}
	g.rm.commitWait.Add(p.Now() - start)
	return nil
}

// admit is a member's gate in front of handle: a request reaches the
// handlers only on a leader whose directory is authoritative and whose
// predecessor's owed effects are real, and only if it has not already
// committed. done means reply is the answer (a redirect, or a reply healed
// from the op table).
func (s *Server) admit(p sim.Proc, req *msg.Message, c *command, op uint64) (reply any, done bool) {
	g := s.grp
	g.sm.requests.Add(1)
	ready := g.node.ReadyToLead()
	if ready && !g.tookOver {
		s.takeover(p)
		ready = !g.dead.Load() && g.node.ReadyToLead()
	}
	if !ready {
		g.rm.redirects.Add(1)
		return c.Status(statusFor(s.notLeaderError())), true
	}
	// A stale duplicate: the client has a record above every id it spans.
	last := op
	if sc, ok := req.Body.(ScatterReq); ok {
		last = sc.lastOp()
	}
	if t := g.tops[req.From]; op != 0 && t.top > last {
		return s.refuseStale(c, op, t.top), true
	}
	if op != 0 {
		if rec, hit := g.ops[opKey{Client: req.From, Op: op}]; hit {
			g.rm.heals.Add(1)
			s.curSpan.Annotate("healed from op table")
			return s.heal(p, c, req.Body, rec), true
		}
	}
	return nil, false
}

// heal rebuilds the reply of an already-committed operation from its
// replicated record. Reads re-fetch the same blocks (same position, same
// bytes); mutations answer from the record without re-running.
func (s *Server) heal(p sim.Proc, c *command, body any, rec *ropRec) any {
	if rec.Kind == ropWBFail || rec.Kind == ropWBClear {
		return c.Status(msg.Failed(codeDeferredWrite, rec.ErrS))
	}
	switch body.(type) {
	case CreateReq:
		return CreateResp{Meta: rec.meta()}
	case RenameReq:
		return RenameResp{Meta: rec.meta()}
	case ReleaseReq:
		return ReleaseResp{Meta: rec.meta()}
	case RandWriteNReq:
		return RandWriteNResp{Written: rec.N}
	case SeqReadReq, SeqReadNReq:
		ent, err := s.lookup(rec.Name)
		if err != nil {
			return c.Status(statusFor(err))
		}
		if _, one := body.(SeqReadReq); one {
			data, err := s.lfsRead(p, ent, rec.At)
			return SeqReadResp{Data: data, Status: statusFor(err)}
		}
		blocks, err := s.lfsReadN(ent, rec.At, rec.N)
		return SeqReadNResp{Blocks: blocks, EOF: rec.EOF, Status: statusFor(err)}
	}
	// Every other recorded operation answers with a bare success.
	return c.Status(msg.Status{})
}

// ---- write-behind markers ----
//
// A replicated group logs where each buffered file's durable prefix ends,
// so a successor knows how far to roll an interrupted buffer back. A group
// of one has no successor to tell: mark is its only question, and dirty
// (above) answers "nothing" for it.

// mark commits a write-behind marker on a replicated group.
func (s *Server) mark(p sim.Proc, op rop) error {
	if s.grp == nil {
		return nil
	}
	return s.commit(p, op)
}

// surfaceDeferred consumes a parked deferred-write error exactly once. A
// group of one takes it out of its cache. On a replicated group (armed by a
// failover or a failed idle step) the clearing rides the log recorded under
// the surfacing op, so a retransmission — to this leader or its successor —
// replays the same error instead of losing or doubling it.
func (s *Server) surfaceDeferred(p sim.Proc, name string, from msg.Addr, opID uint64) error {
	if s.grp == nil {
		err := s.wb.parked[name]
		delete(s.wb.parked, name)
		return err
	}
	text, armed := s.grp.deferred[name]
	if !armed {
		return nil
	}
	clear := rop{Kind: ropWBClear, Client: from, Op: opID, Name: name, ErrS: text}
	if err := s.commit(p, clear); err != nil {
		return err
	}
	return deferredErr(text)
}

// parkDeferred keeps the deferred-write error of a window that failed in an
// idle step, where no request waits for it, until the next operation on the
// file. A group of one holds it in its write-behind cache; a replicated
// group commits the rollback client-less (ropWBFail), which arms it exactly
// as a takeover does.
func (s *Server) parkDeferred(p sim.Proc, ent *dirent, err error) {
	if s.grp == nil {
		s.wb.parked[ent.meta.Name] = err
		return
	}
	fail := rop{Kind: ropWBFail, Name: ent.meta.Name, Blocks: ent.meta.Blocks, ErrS: err.Error()}
	if cerr := s.commit(p, fail); cerr != nil {
		// Leadership is gone: the successor's takeover rolls the file
		// back to its durable watermark and arms the error instead.
		return
	}
}

// wbMayStep reports whether the server may do write-behind work between
// requests: always for a group of one; for a member, only as a live leader
// inside its lease with no client request parked — a deposed leader must not
// land blocks over its successor's.
func (s *Server) wbMayStep(p sim.Proc) bool {
	g := s.grp
	return g == nil || !g.dead.Load() && len(g.parked) == 0 && g.node.LeaseValid(p.Now())
}

// drainWB is the write-behind barrier every handler runs before it reads
// or overwrites a file, asks its size, or moves its name: it surfaces any
// armed deferred error, then lands the file's buffered blocks and commits
// the matching marker so every member's committed size catches up with
// what landed. A deferred write failure surfaces here, exactly once,
// wrapped in ErrDeferredWrite.
func (s *Server) drainWB(p sim.Proc, name string, from msg.Addr, opID uint64) (int, error) {
	if s.wb == nil {
		return 0, nil
	}
	if err := s.surfaceDeferred(p, name, from, opID); err != nil {
		return 0, err
	}
	ent, ok := s.dir[name]
	if !ok {
		return 0, nil
	}
	_, dirty := s.grp.dirty(name)
	if !dirty && s.wb.entries[name] == nil {
		return 0, nil
	}
	if err := s.lease(p); err != nil {
		return 0, err
	}
	flushed, err := s.wbBarrier(ent)
	if err != nil {
		// Acknowledged blocks were rolled back (wbBarrier already shrank
		// the size); replicate the rollback under the surfacing op.
		fail := rop{Kind: ropWBFail, Client: from, Op: opID, Name: name, Blocks: ent.meta.Blocks, ErrS: err.Error()}
		if cerr := s.mark(p, fail); cerr != nil {
			return flushed, cerr
		}
		return flushed, err
	}
	if dirty {
		done := rop{Kind: ropWBFlushed, Name: name, Blocks: ent.meta.Blocks, N: 1}
		if cerr := s.mark(p, done); cerr != nil {
			return flushed, cerr
		}
	}
	return flushed, nil
}

// drainWBAll drains every file with write-behind or deferred state, in
// name order for determinism. All files are drained even if one fails; the
// first error (in name order) is reported.
func (s *Server) drainWBAll(p sim.Proc, from msg.Addr, opID uint64) (int, error) {
	if s.wb == nil {
		return 0, nil
	}
	names := make(map[string]bool, len(s.wb.entries)+len(s.wb.parked))
	for name := range s.wb.entries {
		names[name] = true
	}
	for name := range s.wb.parked {
		names[name] = true
	}
	if g := s.grp; g != nil {
		for name := range g.wbLow {
			names[name] = true
		}
		for name := range g.deferred {
			names[name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	total := 0
	var firstErr error
	for _, name := range sorted {
		n, err := s.drainWB(p, name, from, opID)
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// appendBehind acknowledges one sequential append into the write-behind
// buffer. On a replicated group the file is first marked dirty at its
// committed size, a failed window flush replicates its rollback under this
// op, and the durable watermark follows the landed prefix.
func (s *Server) appendBehind(p sim.Proc, ent *dirent, payload []byte, from msg.Addr, opID uint64) error {
	name := ent.meta.Name
	if err := s.surfaceDeferred(p, name, from, opID); err != nil {
		return err
	}
	if err := s.lease(p); err != nil {
		return err
	}
	if _, dirty := s.grp.dirty(name); !dirty {
		if err := s.mark(p, rop{Kind: ropWBDirty, Name: name, Blocks: ent.meta.Blocks}); err != nil {
			return err
		}
	}
	if err := s.wbAppend(ent, payload); err != nil {
		// The previous window, finished inline by the one this append
		// armed, failed and acknowledged blocks rolled back; replicate
		// the rollback under this op.
		fail := rop{Kind: ropWBFail, Client: from, Op: opID, Name: name, Blocks: ent.meta.Blocks, ErrS: err.Error()}
		if cerr := s.mark(p, fail); cerr != nil {
			return cerr
		}
		return err
	}
	s.syncWBWindow(p, name)
	return nil
}

// syncWBWindow opportunistically advances the replicated durable
// watermark of a buffered file to the landed prefix, bounding how far a
// failover can roll the size back.
func (s *Server) syncWBWindow(p sim.Proc, name string) {
	low, dirty := s.grp.dirty(name)
	e := s.wb.entries[name]
	if !dirty || e == nil {
		return
	}
	durable := e.bufStart
	if e.st.Windows() > 0 {
		durable, _ = e.st.Window(0)
	}
	if durable > low {
		if err := s.commit(p, rop{Kind: ropWBFlushed, Name: name, Blocks: durable}); err != nil {
			// Leadership is gone: the watermark stays put, and the next
			// leader's takeover rolls the file back further — safe, just
			// less precise.
			return
		}
	}
}

// ---- takeover: making a new leader's world real ----

// takeover runs once per leadership, before the first request is served.
// It re-executes the LFS effects of every committed entry the log still
// retains (plus the snapshot's pending tail) — a dead predecessor may
// have committed them without acting — and reconciles write-behind state:
// whatever was buffered on the dead leader is gone, so each dirty file
// rolls back to its durable prefix and arms a deferred-write error.
func (s *Server) takeover(p sim.Proc) {
	g := s.grp
	g.tookOver = true
	replay := append([]rop(nil), g.recentFx...)
	for _, e := range g.node.CommittedSince(g.node.Status().SnapIndex) {
		if e.Data == nil {
			continue
		}
		op, err := decodeRop(e.Data, g.ports)
		if err != nil {
			g.halt(fmt.Errorf("bridge: committed log entry %d: %w", e.Index, err))
			return
		}
		replay = append(replay, op)
	}
	for _, op := range replay {
		s.replayEffect(p, op)
		s.breathe(p)
		if g.dead.Load() || g.node.Status().Role != raft.Leader {
			g.tookOver = false
			return
		}
	}
	names := make([]string, 0, len(g.wbLow))
	for name := range g.wbLow {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if s.wb != nil && s.wb.entries[name] != nil {
			// Our own live buffer (we led before without losing it).
			continue
		}
		ent, ok := s.dir[name]
		if !ok {
			continue
		}
		// The dead leader's window may have landed on some nodes and not
		// others; landedSize stops at the first hole.
		prefix, err := s.landedSize(p, ent)
		if err != nil {
			prefix = g.wbLow[name]
		}
		fail := rop{
			Kind:   ropWBFail,
			Name:   name,
			Blocks: prefix,
			ErrS: fmt.Sprintf("%s: %s: leader failover with a dirty write-behind buffer; size rolled back to %d durable blocks",
				ErrDeferredWrite.Error(), name, prefix),
		}
		if cerr := s.commit(p, fail); cerr != nil {
			g.tookOver = false
			return
		}
	}
}

// breathe performs the leader's consensus duties between takeover effect
// replays: step queued consensus traffic (parking client requests for
// after the takeover), tick the heartbeat schedule, and transmit. Effect
// replay is real disk I/O; without breathing, a replay tail longer than
// the peers' election timeout goes silent, the peers elect over the new
// leader's head, and — since every new leader must take over again — the
// group livelocks in flapping elections.
func (s *Server) breathe(p sim.Proc) {
	g := s.grp
	for {
		m, ok := s.port.TryRecv(p)
		if !ok {
			break
		}
		if raft.IsMessage(m.Body) {
			g.node.Step(m.Body, p.Now())
		} else {
			g.parked = append(g.parked, m)
		}
	}
	g.node.Tick(p.Now())
	s.pump(p)
}

// replayEffect idempotently re-executes one entry's LFS side effect.
func (s *Server) replayEffect(p sim.Proc, op rop) {
	switch op.Kind {
	case ropCreate:
		_ = s.lfsCreate(p, op.Meta.Nodes, op.Meta.LFSFileID, false)
	case ropDelete:
		_, _ = s.lfsDelete(p, op.Meta)
	case ropWrite:
		ent, ok := s.dir[op.Name]
		if !ok || ent.meta.FileID != op.Meta.FileID {
			// The file was deleted (or replaced) later in the log; the
			// write's effect is moot.
			return
		}
		written, err := s.lfsWriteN(ent, op.At, op.Data)
		if err != nil && op.At+int64(op.N) >= ent.meta.Blocks {
			// The replay cannot land and the entry owns the file's tail:
			// shrink the committed size to the durable prefix and forget
			// the op's success record.
			fix := rop{Kind: ropFixup, Client: op.Client, Op: op.Op, Name: op.Name, Blocks: op.At + int64(written)}
			if cerr := s.commit(p, fix); cerr != nil {
				// Leadership is gone mid-takeover; the loop in takeover
				// aborts and the next leader replays this entry again.
				return
			}
		}
	}
}

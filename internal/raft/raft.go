package raft

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"bridge/internal/sim"
)

// Role is a node's consensus role.
type Role int

const (
	Follower Role = iota
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Config parameterizes a Node.
type Config struct {
	// ID is this node's index; Peers lists every member (including ID).
	ID    int
	Peers []int
	// Seed drives the jittered election timeouts. Derive it per node
	// (core.DeriveSeed) so replicas never tie.
	Seed int64
	// HeartbeatEvery is the leader's append/heartbeat cadence.
	// Default 45ms.
	HeartbeatEvery time.Duration
	// ElectionMin/ElectionMax bound the randomized election timeout.
	// Defaults 150ms/300ms. ElectionMin is also the lease extension per
	// acked heartbeat, so it must stay below the time a majority needs
	// to elect a rival.
	ElectionMin time.Duration
	ElectionMax time.Duration
	// MaxAppend bounds entries per AppendReq. Default 64.
	MaxAppend int
	// Store persists term, vote, snapshot, and log. Required.
	Store Store
}

func (c *Config) applyDefaults() {
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 45 * time.Millisecond
	}
	if c.ElectionMin == 0 {
		c.ElectionMin = 150 * time.Millisecond
	}
	if c.ElectionMax == 0 {
		c.ElectionMax = 2 * c.ElectionMin
	}
	if c.MaxAppend == 0 {
		c.MaxAppend = 64
	}
}

// Outbound is a consensus message to hand to the transport.
type Outbound struct {
	To   int
	Msg  any
	Size int
}

// Status is a snapshot of a node's consensus state, safe to read from
// any process.
type Status struct {
	ID        int
	Term      uint64
	Role      Role
	Leader    int // -1 when unknown
	Commit    uint64
	LastIndex uint64
	SnapIndex uint64
}

// Tallies count consensus events since the node started; the owner diffs
// them into its metrics registry.
type Tallies struct {
	Elections     int64 // elections this node started
	LeaderWins    int64 // times this node won an election
	StepDowns     int64 // leaderships lost to a higher term or lost quorum
	VotesGranted  int64
	Committed     int64 // entries this node delivered to its applier
	SnapInstalls  int64 // snapshots installed from a leader
	AppendsSent   int64 // AppendReq messages queued (entries and heartbeats)
	AppendsRecvOK int64 // AppendReq accepted from the leader
	AppendRejects int64 // AppendResp rejections received as leader
}

// Install is a snapshot delivered by a leader; the owner must reset its
// state machine to Data before applying entries past Index.
type Install struct {
	Index uint64
	Data  []byte
}

// Node is one consensus participant. It is passive: the owning process
// calls Tick when Deadline passes, Step for each peer message, Propose to
// append, and then Flush/TakeCommitted to persist, transmit, and apply.
// Neither hand-off copies: Flush returns the node's own outbound queue and
// TakeCommitted the log's own range, each valid until the next call that
// reuses it.
// All methods are mutex-guarded so other processes may read Status while
// the owner runs, but only one process may drive the node.
type Node struct {
	mu  sync.Mutex
	cfg Config
	rng *rand.Rand

	// Persistent state (mirrored to cfg.Store by Flush when dirty).
	term      uint64
	votedFor  int
	snapIndex uint64
	snapTerm  uint64
	snapshot  []byte
	log       []Entry // log[0].Index == snapIndex+1

	// Volatile state.
	role      Role
	leader    int
	commit    uint64
	delivered uint64 // last index handed out by TakeCommitted
	votes     map[int]bool
	next      map[int]uint64
	match     map[int]uint64
	acked     map[int]time.Duration // latest echoed SentAt per peer
	noop      uint64                // this term's barrier entry (leader)
	electAt   time.Duration         // election deadline
	beatAt    time.Duration         // next heartbeat (leader)
	electedAt time.Duration

	// What the next Flush saves: dirty is set by any persistent change,
	// snapDirty when the snapshot was replaced, logFrom to the lowest index
	// appended or truncated (0: the log is unchanged).
	dirty     bool
	snapDirty bool
	logFrom   uint64

	lease     []time.Duration // leaseExpiry's scratch, one slot per peer
	out       []Outbound      // queued for the next Flush
	sent      []Outbound      // what the last Flush returned; the next one's queue
	installed *Install
	tallies   Tallies
}

// New creates a node. Call Load before driving it.
func New(cfg Config) *Node {
	cfg.applyDefaults()
	if cfg.Store == nil {
		panic("raft: Config.Store is required")
	}
	n := &Node{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		votedFor: -1,
		leader:   -1,
		votes:    make(map[int]bool),
		next:     make(map[int]uint64),
		match:    make(map[int]uint64),
		acked:    make(map[int]time.Duration),
		lease:    make([]time.Duration, len(cfg.Peers)),
	}
	return n
}

// Load recovers persistent state from the store and arms the election
// timer. It returns the recovered snapshot (nil when none) so the owner
// can reset its state machine; entries past the snapshot re-deliver
// through TakeCommitted as the commit index advances.
func (n *Node) Load(p sim.Proc, now time.Duration) ([]byte, error) {
	st, ok, err := n.cfg.Store.Load(p)
	n.mu.Lock()
	defer n.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if ok {
		n.term = st.Term
		n.votedFor = st.VotedFor
		n.snapIndex = st.SnapIndex
		n.snapTerm = st.SnapTerm
		n.snapshot = st.Snapshot
		// A store that crashed between persisting a snapshot and the log
		// truncation it allows still holds the entries the snapshot
		// covers; anything else must continue right after it.
		n.log = dropThrough(st.Entries, st.SnapIndex)
		if len(n.log) > 0 && n.log[0].Index != n.snapIndex+1 {
			return nil, fmt.Errorf("raft: stored log resumes at index %d after a snapshot through %d", n.log[0].Index, n.snapIndex)
		}
	}
	n.commit = n.snapIndex
	n.delivered = n.snapIndex
	n.resetElection(now)
	return n.snapshot, nil
}

// Deadline is the next time the owner must call Tick.
func (n *Node) Deadline() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == Leader {
		return n.beatAt
	}
	return n.electAt
}

// Status returns a read-only snapshot of the node's state.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Status{
		ID:        n.cfg.ID,
		Term:      n.term,
		Role:      n.role,
		Leader:    n.leader,
		Commit:    n.commit,
		LastIndex: n.lastIndex(),
		SnapIndex: n.snapIndex,
	}
}

// Tallies returns the running event counts.
func (n *Node) Tallies() Tallies {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tallies
}

// LeaderHint is the node's best guess at the current leader (-1 unknown).
func (n *Node) LeaderHint() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader
}

// ReadyToLead reports whether this node is a leader whose no-op barrier
// has committed — the point after which it has applied every mutation
// previous terms acknowledged, and may serve.
func (n *Node) ReadyToLead() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == Leader && n.noop > 0 && n.commit >= n.noop
}

// LeaseValid reports whether a majority acked heartbeats recently enough
// that no rival can have been elected by now: the k-th freshest echoed
// send time (k = majority, counting this node as fresh) plus ElectionMin
// is still in the future. Gates reads and effect execution on the leader.
func (n *Node) LeaseValid(now time.Duration) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == Leader && now < n.leaseExpiry(now)
}

// leaseExpiry computes the lease end. Callers hold n.mu.
func (n *Node) leaseExpiry(now time.Duration) time.Duration {
	times := n.lease
	for i, id := range n.cfg.Peers {
		if id == n.cfg.ID {
			times[i] = now
		} else if t, ok := n.acked[id]; ok {
			times[i] = t
		} else {
			times[i] = -1
		}
	}
	slices.Sort(times)
	base := times[len(times)-n.majority()] // the majority-th freshest
	if base < 0 {
		return 0
	}
	return base + n.cfg.ElectionMin
}

func (n *Node) majority() int { return len(n.cfg.Peers)/2 + 1 }

func (n *Node) lastIndex() uint64 {
	if len(n.log) == 0 {
		return n.snapIndex
	}
	return n.log[len(n.log)-1].Index
}

// termAt returns the term of index i, or 0 when i is compacted away.
// Callers hold n.mu.
func (n *Node) termAt(i uint64) uint64 {
	if i == n.snapIndex {
		return n.snapTerm
	}
	if i > n.snapIndex && i <= n.lastIndex() {
		return n.log[i-n.snapIndex-1].Term
	}
	return 0
}

func (n *Node) resetElection(now time.Duration) {
	span := n.cfg.ElectionMax - n.cfg.ElectionMin
	jitter := time.Duration(0)
	if span > 0 {
		jitter = time.Duration(n.rng.Int63n(int64(span)))
	}
	n.electAt = now + n.cfg.ElectionMin + jitter
}

// Tick fires timers: election timeout for followers and candidates,
// heartbeat (and quorum check) for leaders.
func (n *Node) Tick(now time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == Leader {
		// Check quorum: a leader that cannot refresh its lease for a
		// whole election span has lost contact with a majority —
		// partitioned away — and must stop acting.
		deadline := n.leaseExpiry(now)
		if deadline < n.electedAt+n.cfg.ElectionMin {
			deadline = n.electedAt + n.cfg.ElectionMin
		}
		if now > deadline+n.cfg.ElectionMax {
			n.stepDown(now)
			return
		}
		if now >= n.beatAt {
			n.broadcastAppend(now)
			n.beatAt = now + n.cfg.HeartbeatEvery
		}
		return
	}
	if now >= n.electAt {
		n.startElection(now)
	}
}

// stepDown reverts a leader or candidate to follower. Callers hold n.mu.
func (n *Node) stepDown(now time.Duration) {
	if n.role == Leader {
		n.tallies.StepDowns++
	}
	n.role = Follower
	n.leader = -1
	n.resetElection(now)
}

func (n *Node) startElection(now time.Duration) {
	n.term++
	n.role = Candidate
	n.votedFor = n.cfg.ID
	n.leader = -1
	n.votes = map[int]bool{n.cfg.ID: true}
	n.dirty = true
	n.resetElection(now)
	n.tallies.Elections++
	if len(n.cfg.Peers) == 1 {
		n.becomeLeader(now)
		return
	}
	req := VoteReq{Term: n.term, Candidate: n.cfg.ID, LastIndex: n.lastIndex(), LastTerm: n.termAt(n.lastIndex())}
	for _, id := range n.cfg.Peers {
		if id != n.cfg.ID {
			n.send(id, req)
		}
	}
}

func (n *Node) becomeLeader(now time.Duration) {
	n.role = Leader
	n.leader = n.cfg.ID
	n.electedAt = now
	n.acked = make(map[int]time.Duration)
	last := n.lastIndex()
	for _, id := range n.cfg.Peers {
		n.next[id] = last + 1
		n.match[id] = 0
	}
	n.tallies.LeaderWins++
	// The no-op barrier: committing an entry of the new term is the only
	// way to learn the true commit frontier of earlier terms.
	n.appendLocal(nil)
	n.noop = n.lastIndex()
	n.advanceCommit() // a single-node cluster commits immediately
	n.broadcastAppend(now)
	n.beatAt = now + n.cfg.HeartbeatEvery
}

// appendLocal appends one entry to the leader's log. Callers hold n.mu.
func (n *Node) appendLocal(data []byte) Entry {
	e := Entry{Index: n.lastIndex() + 1, Term: n.term, Data: data}
	n.log = append(n.log, e)
	n.match[n.cfg.ID] = e.Index
	n.logEdited(e.Index)
	return e
}

// logEdited notes that the log changed from index i on. Callers hold n.mu.
func (n *Node) logEdited(i uint64) {
	if n.logFrom == 0 || i < n.logFrom {
		n.logFrom = i
	}
	n.dirty = true
}

// Propose appends data to the replicated log. It returns the entry's
// (index, term) — the proposal has committed once an entry with exactly
// that index and term is delivered by TakeCommitted — or ok=false when
// this node is not the leader.
func (n *Node) Propose(data []byte, now time.Duration) (index, term uint64, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != Leader {
		return 0, 0, false
	}
	e := n.appendLocal(data)
	if len(n.cfg.Peers) == 1 {
		n.advanceCommit()
	} else {
		n.broadcastAppend(now)
		n.beatAt = now + n.cfg.HeartbeatEvery
	}
	return e.Index, e.Term, true
}

// broadcastAppend queues an AppendReq (or SnapReq for compacted-away
// followers) to every peer. Callers hold n.mu.
func (n *Node) broadcastAppend(now time.Duration) {
	for _, id := range n.cfg.Peers {
		if id != n.cfg.ID {
			n.sendAppend(id, now)
		}
	}
}

// sendAppend queues replication traffic for one peer and advances next[to]
// past what it sent (optimistic next): an entry goes to a follower once,
// and only a reject brings next back. Callers hold n.mu.
func (n *Node) sendAppend(to int, now time.Duration) {
	ni := n.next[to]
	if ni <= n.snapIndex {
		n.send(to, SnapReq{Term: n.term, Leader: n.cfg.ID, Index: n.snapIndex, SnapTerm: n.snapTerm, Data: n.snapshot})
		return
	}
	prev := ni - 1
	var ents []Entry
	if ni <= n.lastIndex() {
		from := int(ni - n.snapIndex - 1)
		end := from + n.cfg.MaxAppend
		if end > len(n.log) {
			end = len(n.log)
		}
		ents = append([]Entry(nil), n.log[from:end]...)
		n.next[to] = ni + uint64(len(ents))
	}
	n.tallies.AppendsSent++
	n.send(to, AppendReq{
		Term: n.term, Leader: n.cfg.ID,
		PrevIndex: prev, PrevTerm: n.termAt(prev),
		Entries: ents, Commit: n.commit, SentAt: now,
	})
}

func (n *Node) send(to int, body any) {
	n.out = append(n.out, Outbound{To: to, Msg: body, Size: WireSize(body)})
}

// Step feeds one peer message into the node.
func (n *Node) Step(body any, now time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch b := body.(type) {
	case VoteReq:
		n.maybeAdvanceTerm(b.Term, now)
		if b.Term < n.term {
			n.send(b.Candidate, VoteResp{Term: n.term, From: n.cfg.ID, Granted: false})
			return
		}
		last := n.lastIndex()
		upToDate := b.LastTerm > n.termAt(last) || (b.LastTerm == n.termAt(last) && b.LastIndex >= last)
		grant := n.role == Follower && (n.votedFor == -1 || n.votedFor == b.Candidate) && upToDate
		if grant {
			n.votedFor = b.Candidate
			n.dirty = true
			n.resetElection(now)
			n.tallies.VotesGranted++
		}
		n.send(b.Candidate, VoteResp{Term: n.term, From: n.cfg.ID, Granted: grant})
	case VoteResp:
		n.maybeAdvanceTerm(b.Term, now)
		if n.role != Candidate || b.Term != n.term || !b.Granted {
			return
		}
		n.votes[b.From] = true
		if len(n.votes) >= n.majority() {
			n.becomeLeader(now)
		}
	case AppendReq:
		n.stepAppend(b, now)
	case AppendResp:
		n.maybeAdvanceTerm(b.Term, now)
		if n.role != Leader || b.Term != n.term {
			return
		}
		if b.SentAt > n.acked[b.From] {
			n.acked[b.From] = b.SentAt
		}
		if b.Ok {
			if b.MatchIndex > n.match[b.From] {
				n.match[b.From] = b.MatchIndex
			}
			if ni := b.MatchIndex + 1; ni > n.next[b.From] {
				n.next[b.From] = ni
			}
			n.advanceCommit()
			if n.next[b.From] <= n.lastIndex() {
				n.sendAppend(b.From, now)
			}
			return
		}
		// Consistency miss, or an AppendReq lost or overtaken: resume from
		// the follower's hint. Never below match+1 — a reject that old was
		// answered before entries the follower has since acknowledged.
		n.tallies.AppendRejects++
		n.next[b.From] = max(b.MatchIndex, n.match[b.From]) + 1
		n.sendAppend(b.From, now)
	case SnapReq:
		n.maybeAdvanceTerm(b.Term, now)
		if b.Term < n.term {
			n.send(b.Leader, SnapResp{Term: n.term, From: n.cfg.ID, MatchIndex: n.snapIndex})
			return
		}
		n.role = Follower
		n.leader = b.Leader
		n.resetElection(now)
		if b.Index > n.snapIndex {
			n.installSnapshot(b)
		}
		n.send(b.Leader, SnapResp{Term: n.term, From: n.cfg.ID, MatchIndex: n.snapIndex})
	case SnapResp:
		n.maybeAdvanceTerm(b.Term, now)
		if n.role != Leader || b.Term != n.term {
			return
		}
		if b.MatchIndex > n.match[b.From] {
			n.match[b.From] = b.MatchIndex
		}
		if ni := b.MatchIndex + 1; ni > n.next[b.From] {
			n.next[b.From] = ni
		}
		if n.next[b.From] <= n.lastIndex() {
			n.sendAppend(b.From, now)
		}
	}
}

// maybeAdvanceTerm adopts a higher term seen in any message. Callers
// hold n.mu.
func (n *Node) maybeAdvanceTerm(term uint64, now time.Duration) {
	if term <= n.term {
		return
	}
	n.term = term
	n.votedFor = -1
	n.dirty = true
	n.stepDown(now)
}

func (n *Node) stepAppend(b AppendReq, now time.Duration) {
	n.maybeAdvanceTerm(b.Term, now)
	if b.Term < n.term {
		n.send(b.Leader, AppendResp{Term: n.term, From: n.cfg.ID, Ok: false, MatchIndex: n.lastIndex(), SentAt: b.SentAt})
		return
	}
	if n.role != Follower {
		n.stepDown(now)
	}
	n.role = Follower
	n.leader = b.Leader
	n.resetElection(now)
	if b.PrevIndex > n.lastIndex() {
		n.send(b.Leader, AppendResp{Term: n.term, From: n.cfg.ID, Ok: false, MatchIndex: n.lastIndex(), SentAt: b.SentAt})
		return
	}
	if b.PrevIndex > n.snapIndex && n.termAt(b.PrevIndex) != b.PrevTerm {
		// Conflict at the consistency point: drop it and everything after.
		n.log = n.log[:b.PrevIndex-n.snapIndex-1]
		n.logEdited(b.PrevIndex)
		n.send(b.Leader, AppendResp{Term: n.term, From: n.cfg.ID, Ok: false, MatchIndex: n.lastIndex(), SentAt: b.SentAt})
		return
	}
	for _, e := range b.Entries {
		if e.Index <= n.snapIndex {
			continue
		}
		if e.Index <= n.lastIndex() {
			if n.termAt(e.Index) == e.Term {
				continue
			}
			n.log = n.log[:e.Index-n.snapIndex-1]
		}
		n.log = append(n.log, e)
		n.logEdited(e.Index)
	}
	m := b.PrevIndex + uint64(len(b.Entries))
	if m < n.lastIndex() && len(b.Entries) == 0 {
		// Pure heartbeat: everything we have is still unverified past
		// PrevIndex, so only PrevIndex is confirmed matched.
		m = b.PrevIndex
	}
	if c := min64(b.Commit, m); c > n.commit {
		n.commit = c
	}
	n.tallies.AppendsRecvOK++
	n.send(b.Leader, AppendResp{Term: n.term, From: n.cfg.ID, Ok: true, MatchIndex: m, SentAt: b.SentAt})
}

// installSnapshot adopts a leader snapshot. Callers hold n.mu.
func (n *Node) installSnapshot(b SnapReq) {
	if b.Index < n.lastIndex() && n.termAt(b.Index) == b.SnapTerm {
		// The snapshot is a prefix of our log: keep the suffix.
		n.log = dropThrough(n.log, b.Index)
	} else {
		n.log = nil
		n.logEdited(b.Index + 1)
	}
	n.snapIndex = b.Index
	n.snapTerm = b.SnapTerm
	n.snapshot = b.Data
	if n.commit < b.Index {
		n.commit = b.Index
	}
	if n.delivered < b.Index {
		n.delivered = b.Index
	}
	n.installed = &Install{Index: b.Index, Data: b.Data}
	n.snapDirty = true
	n.dirty = true
	n.tallies.SnapInstalls++
}

// advanceCommit moves the commit index over majority-replicated entries
// of the current term. Callers hold n.mu.
func (n *Node) advanceCommit() {
	for idx := n.lastIndex(); idx > n.commit; idx-- {
		if n.termAt(idx) != n.term {
			break
		}
		count := 0
		for _, id := range n.cfg.Peers {
			if n.match[id] >= idx {
				count++
			}
		}
		if count >= n.majority() {
			n.commit = idx
			break
		}
	}
}

// Flush persists what changed since the last Flush (before any message
// promising it can leave) and returns the queued outbound messages. Call
// after every Tick, Step, Propose, or Compact. The slice is the node's own
// queue, valid until the next Flush: the two queues alternate, so only the
// Outbound values, never the slice, may be kept.
func (n *Node) Flush(p sim.Proc) ([]Outbound, error) {
	n.mu.Lock()
	dirty := n.dirty
	var e Edit
	if dirty {
		e = Edit{Term: n.term, VotedFor: n.votedFor}
		if n.snapDirty {
			e.Snap, e.SnapIndex, e.SnapTerm, e.Snapshot = true, n.snapIndex, n.snapTerm, n.snapshot
		}
		if n.logFrom != 0 {
			// An edit below the snapshot is subsumed by it: the store
			// drops what the snapshot covers and takes the whole log.
			e.From = max(n.logFrom, n.snapIndex+1)
			// Read by Save outside the lock: only this caller, the owner,
			// writes the log.
			e.Entries = n.log[e.From-n.snapIndex-1:]
		}
	}
	n.dirty, n.snapDirty, n.logFrom = false, false, 0
	n.mu.Unlock()
	if dirty {
		if err := n.cfg.Store.Save(p, e); err != nil {
			return nil, err
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// The last Flush's queue becomes the next one's, cleared so it pins no
	// message body the caller has sent.
	clear(n.sent)
	out := n.out
	n.out, n.sent = n.sent[:0], out
	return out, nil
}

// TakeCommitted returns the newly committed entries since the last call,
// in log order. The owner applies them to its state machine. The slice is
// the log's own range, capped so an append cannot write into the log: it
// is valid until the next call into the node, since only those (a
// truncation or snapshot install in Step, a Compact) rewrite the log's
// array. An entry's Data is never rewritten.
func (n *Node) TakeCommitted() []Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.delivered >= n.commit {
		return nil
	}
	from := int(n.delivered - n.snapIndex)
	to := int(n.commit - n.snapIndex)
	if from < 0 || to > len(n.log) {
		// A snapshot superseded part of the range; deliver what the log
		// still holds (the snapshot install event carried the rest).
		from = 0
		to = int(n.commit - n.snapIndex)
		if to > len(n.log) {
			to = len(n.log)
		}
	}
	ents := n.log[from:to:to]
	n.delivered = n.commit
	n.tallies.Committed += int64(len(ents))
	return ents
}

// CommittedSince returns copies of the committed entries with index in
// (from, commit], clipped to what the retained log still holds. A fresh
// leader uses it to re-execute the side effects of entries a dead
// predecessor may have committed but never acted on.
func (n *Node) CommittedSince(from uint64) []Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	lo := from
	if lo < n.snapIndex {
		lo = n.snapIndex
	}
	var out []Entry
	for _, e := range n.log {
		if e.Index > lo && e.Index <= n.commit {
			out = append(out, e)
		}
	}
	return out
}

// TakeInstalled returns a pending snapshot-install event, if any.
func (n *Node) TakeInstalled() *Install {
	n.mu.Lock()
	defer n.mu.Unlock()
	ev := n.installed
	n.installed = nil
	return ev
}

// Compact discards the log through index, which the owner has applied
// and serialized into snap. Persisted on the next Flush.
func (n *Node) Compact(index uint64, snap []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if index <= n.snapIndex || index > n.lastIndex() || index > n.commit {
		return
	}
	term := n.termAt(index)
	n.log = dropThrough(n.log, index)
	n.snapIndex = index
	n.snapTerm = term
	n.snapshot = snap
	n.snapDirty = true
	n.dirty = true
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

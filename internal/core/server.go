package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"bridge/internal/distrib"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/sim"
)

// Config parameterizes the Bridge Server.
type Config struct {
	// Node is the processor the server runs on (conventionally 0, a node
	// without a disk).
	Node msg.NodeID
	// OpCPU is processor time charged per request at the server.
	// Default 500µs.
	OpCPU time.Duration
	// LFSTimeout bounds every call the server makes to an LFS instance,
	// so a failed node surfaces as an error instead of a hang. The
	// default (60s simulated) comfortably exceeds the longest legitimate
	// operation.
	LFSTimeout time.Duration
	// PortName overrides the server's port (default PortName). Used
	// when several Bridge Server processes share the cluster: "in our
	// implementation the Bridge Server is a single centralized process,
	// though this need not be the case".
	PortName string
	// IDBase and IDStride partition the file-id space between servers
	// so their LFS file ids never collide. Defaults: 0 and 1.
	IDBase   uint32
	IDStride uint32
	// LFSRetry, when set, retransmits every timed-out call to a storage
	// node (lfsFinish) under the policy. Off by default.
	LFSRetry *RetryPolicy
	// Health, when set, runs a heartbeat monitor over the storage nodes;
	// calls to a node it has declared dead fast-fail, and one in flight is
	// abandoned (lfsStart, lfsAwait). Off by default.
	// A replicated group rejects it (DESIGN.md, feature × group-size).
	Health *HealthConfig
	// ReadAhead, when positive, buffers sequential reads in windows of
	// ReadAhead stripes (ReadAhead×p blocks) per (client, file) and
	// prefetches the next window asynchronously. Off by default so the
	// naive per-block path keeps the paper's measured behavior. A
	// replicated group rejects it (DESIGN.md, feature × group-size).
	ReadAhead int
	// WriteBehind, when positive, acknowledges sequential appends to
	// formulaic files as soon as they are buffered and flushes them in
	// windows of WriteBehind stripes (WriteBehind×p blocks) as vectored
	// group commits, started and gathered in the server's idle time while
	// the next window fills. Every read, overwrite, or size query drains
	// the buffer first; Flush is the explicit durability barrier. Off by
	// default.
	WriteBehind int
}

func (c *Config) applyDefaults() {
	if c.OpCPU == 0 {
		c.OpCPU = 500 * time.Microsecond
	}
	if c.LFSTimeout == 0 {
		c.LFSTimeout = lfs.DefaultTimeout
	}
	if c.PortName == "" {
		c.PortName = PortName
	}
	if c.IDStride == 0 {
		c.IDStride = 1
	}
}

// Server is the Bridge Server: one process speaking the Table 1 command
// set over one directory. It is "a single centralized process, though this
// need not be the case": grp optionally makes it one member of a
// Raft-replicated group sharing that directory, and every handler below is
// written once for both — validate, drain write-behind, check the lease,
// commit, run the LFS effect, fix up — which degenerates correctly for a
// group of one, whose commit is an inline apply and whose lease never
// lapses.
type Server struct {
	net   *msg.Network
	cfg   Config
	nodes []msg.NodeID
	port  *msg.Port

	lc *lfs.Client // for talking to LFS instances; owned by the server process
	// dir, nextID and the cursors are the directory state machine: only
	// apply (and snapshot restore) changes their membership.
	dir     map[string]*dirent
	cursors map[cursorKey]*cursor
	jobs    map[uint64]*job
	nextID  uint32
	nextJob uint64
	// grp is the server's membership of a replicated directory group; nil
	// for a group of one.
	grp *member

	retry     *retrier       // nil = no LFS retransmission
	health    *healthTracker // nil = no monitoring
	ra        *raCache       // nil = no read-ahead
	wb        *wbCache       // nil = no write-behind
	monStop   *msg.Port
	nextLFSOp uint64
	sessions  map[msg.Addr]session // a group of one's dedup (dispatch)
	sessQ     []msg.Addr           // sessions' clients, oldest first
	// one carries a single-block command's block to or from the shared
	// batched handlers without allocating a slice per request. The server
	// is single-threaded and the slot is consumed before the next request
	// is handled (log entries hold their own decoded copy).
	one [1][]byte
	// sc is the per-item state of the scatter being handled, reused from
	// one request to the next like one; fan is the same for a fan-out.
	sc  []scatterCall
	fan []fanCall
	// vec is the stream of a synchronous vectored read or write (lfsReadN,
	// lfsWriteN), empty between them; its Finish is every server stream's.
	vec vecStream

	m srvMetrics
	// curSpan is the span of the request currently being dispatched, and
	// curTrace its trace; the server is single-threaded, so retry paths deep
	// in the call tree can annotate it, and work it leaves for later can
	// parent under it, without plumbing. Zero between requests or when
	// tracing is off.
	curSpan  obs.SpanRef
	curTrace obs.TraceID
}

// session is a client's latest operation: its id and, if that attempt
// succeeded, its reply.
type session struct {
	op    uint64
	reply any
}

// dedupCap bounds the clients a group of one keeps a session for, and the
// records of a member's op table; the oldest is evicted first.
const dedupCap = 2048

type dirent struct {
	meta  Meta
	hints map[msg.NodeID]int32
	// lay memoizes layout() for laySpec; see there.
	lay     distrib.Layout
	laySpec distrib.Spec
}

// layout is ent.meta.Layout() built once per placement spec instead of once
// per block request. A layout is a pure function of its spec (the hashed
// one memoizes a prefix, which only saves work when shared), so the key is
// the spec itself and no writer of meta.Spec needs to know about the memo.
func (ent *dirent) layout() (distrib.Layout, error) {
	if ent.lay == nil || ent.laySpec != ent.meta.Spec {
		l, err := ent.meta.Layout()
		if err != nil {
			return nil, err
		}
		ent.lay, ent.laySpec = l, ent.meta.Spec
	}
	return ent.lay, nil
}

type cursorKey struct {
	client msg.Addr
	name   string
}

type cursor struct {
	readPos int64
	// chain is the location of the next block to read in a disordered
	// file (valid when chainValid is set); it lets sequential reads
	// follow the chain at one LFS read per block. It is a volatile hint,
	// not directory state: losing it costs a walk from the head.
	chain      chainLoc
	chainValid bool
}

type job struct {
	id      uint64
	name    string
	workers []msg.Addr
	readPos int64
	port    *msg.Port
}

// DirSnapshot is a serializable image of the Bridge directory, used by the
// bridgefs command to persist a cluster across invocations.
type DirSnapshot struct {
	NextID  uint32
	NextJob uint64
	Files   []Meta
}

// Snapshot exports the directory. Only call after the simulation has
// drained (the server process has exited); the server is single-threaded
// and its state must not be read while it runs.
func (s *Server) Snapshot() DirSnapshot {
	snap := DirSnapshot{NextID: s.nextID, NextJob: s.nextJob}
	for _, name := range s.sortedNames() {
		snap.Files = append(snap.Files, s.dir[name].meta)
	}
	return snap
}

// Restore seeds the directory from a snapshot. Only call before Wait
// starts the simulation.
func (s *Server) Restore(snap DirSnapshot) {
	s.nextID = snap.NextID
	s.nextJob = snap.NextJob
	for _, meta := range snap.Files {
		s.dir[meta.Name] = &dirent{meta: meta, hints: make(map[msg.NodeID]int32)}
	}
}

// startServer creates a Bridge Server process. nodes lists the storage
// nodes in interleaving order; spec, when non-nil, makes the server a
// member of a replicated group (StartCluster has checked that the
// configuration is one a replicated group accepts).
func startServer(rt sim.Runtime, net *msg.Network, cfg Config, nodes []msg.NodeID, spec *memberSpec) *Server {
	cfg.applyDefaults()
	s := &Server{
		net:      net,
		cfg:      cfg,
		nodes:    append([]msg.NodeID(nil), nodes...),
		port:     net.NewPort(msg.Addr{Node: cfg.Node, Port: cfg.PortName}),
		dir:      make(map[string]*dirent),
		cursors:  make(map[cursorKey]*cursor),
		jobs:     make(map[uint64]*job),
		sessions: make(map[msg.Addr]session),
		m:        newSrvMetrics(net.Stats().Registry()),
	}
	if cfg.LFSRetry != nil {
		// Fold the port name into the jitter seed so the servers of a
		// distributed cluster, which share one policy, do not retransmit
		// in lockstep.
		s.retry = newRetrier(cfg.LFSRetry.WithSeed(0, cfg.PortName))
	}
	if cfg.Health != nil {
		s.health = newHealthTracker(*cfg.Health)
		s.startMonitor(rt)
	}
	if cfg.ReadAhead > 0 {
		s.ra = newRACache(cfg.ReadAhead)
	}
	if cfg.WriteBehind > 0 {
		s.wb = newWBCache(cfg.WriteBehind)
	}
	procName := s.port.Addr().String()
	if spec != nil {
		s.grp = newMember(net, *spec)
		procName = fmt.Sprintf("%v/r%d", s.port.Addr(), spec.id)
	}
	rt.Go(procName, s.run)
	return s
}

// Addr returns the server's request (and, for a member, consensus) address.
func (s *Server) Addr() msg.Addr { return s.port.Addr() }

// Stop closes the server port. A group of one exits after draining its
// queue, and its health monitor stops with it. A member stops dead, with
// kill-9 semantics — nothing volatile survives and nothing more is sent;
// its consensus state is durable, so there is nothing gentler to do (the
// caller crashes the raft store's disk alongside to model a power loss).
func (s *Server) Stop() {
	if s.grp != nil {
		s.grp.dead.Store(true)
	}
	s.port.Close()
	if s.monStop != nil {
		s.monStop.Close()
	}
}

// run is the server process: the one request loop. After each reply it does
// the work no client waits for: the read-ahead top-up, then write-behind
// steps for as long as no request is queued.
func (s *Server) run(p sim.Proc) {
	// Calls are bounded by LFSTimeout and abandoned once the monitor declares a node dead.
	s.lc = &lfs.Client{C: msg.NewClient(p, s.net, s.cfg.Node, s.cfg.PortName+".lfscli"), Policy: lfs.Policy{Timeout: s.cfg.LFSTimeout}}
	defer s.lc.C.Close()
	if s.health != nil {
		s.lc.Down, s.lc.Every = s.down, s.health.cfg.Every
	}
	s.vec = vecStream{C: s.lc, Finish: func(_ *lfs.Client, c vecCall) (*msg.Message, error) { return s.lfsFinish(p, c.lfsPend) }}
	if !s.loadLog(p) {
		return
	}
	for {
		req, ok := s.next(p)
		if !ok {
			break
		}
		span := s.serve(p, req)
		s.raAhead(p, req.Trace, span)
		for s.port.QueueLen() == 0 && s.wbStep(p) {
		}
		s.pump(p)
	}
	// Close job ports in job-id order: closing unblocks their workers,
	// and that order is observable virtual-time state.
	ids := make([]uint64, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s.jobs[id].port.Close()
	}
}

// serve handles one client request: span, CPU charge, dispatch, reply. It
// returns the request's span (0 when untraced), the parent of any work the
// request leaves for after its reply.
func (s *Server) serve(p sim.Proc, req *msg.Message) obs.SpanID {
	c := commands.Of(req.Body)
	rec := s.net.Recorder()
	var id obs.SpanID
	if rec != nil {
		at := p.Now()
		sp := rec.Start(at, req.Trace, req.Span, "server."+c.Name, int(s.cfg.Node))
		sp.SetQueueWait(s.net.QueueWait(at, req))
		s.curSpan, s.curTrace, id = sp, req.Trace, sp.ID()
		// LFS calls made while handling this request parent under it.
		s.lc.C.SetTrace(req.Trace, sp.ID())
	}
	if s.cfg.OpCPU > 0 {
		p.Sleep(s.cfg.OpCPU)
	}
	body := s.dispatch(p, req, c)
	if !s.crashed() {
		_ = s.net.Send(p, s.cfg.Node, req.From, &msg.Message{
			From:  s.port.Addr(),
			ReqID: req.ReqID,
			Body:  body,
			Size:  c.Size(body),
			Trace: req.Trace,
			Span:  req.Span,
		})
	}
	if rec != nil {
		s.curSpan.EndErr(p.Now(), respStatus(body).Detail())
		s.curSpan, s.curTrace = obs.SpanRef{}, 0
		s.lc.C.SetTrace(0, 0)
	}
	return id
}

// dispatch runs the request's handler behind retransmission dedup, so lost
// replies and duplicated messages never re-run a mutation. The two group
// sizes remember different things: a member's replicated op table (admit)
// survives a failover and re-reads healed data from the LFS; a group of one
// keeps each client's latest operation and its reply in volatile memory.
// In both, a copy of an operation older than the latest is refused unrun.
func (s *Server) dispatch(p sim.Proc, req *msg.Message, c *command) any {
	op := c.OpID(req.Body)
	if s.grp != nil {
		if reply, done := s.admit(p, req, c, op); done {
			return reply
		}
		return c.Serve(s, p, req.From, req.Body)
	}
	if op == 0 {
		return c.Serve(s, p, req.From, req.Body)
	}
	last, known := s.sessions[req.From]
	switch {
	case known && op < last.op:
		return s.refuseStale(c, op, last.op)
	case known && op == last.op && last.reply != nil:
		s.m.dedupHits.Add(1)
		s.curSpan.Annotate("dedup hit")
		return last.reply
	case !known:
		if len(s.sessQ) >= dedupCap {
			delete(s.sessions, s.sessQ[0])
			s.sessQ = s.sessQ[1:]
		}
		s.sessQ = append(s.sessQ, req.From)
	}
	body := c.Serve(s, p, req.From, req.Body)
	last = session{op: op}
	if respStatus(body).OK() { // a failed attempt's retransmission runs again
		last.reply = body
	}
	s.sessions[req.From] = last
	return body
}

// refuseStale answers a stale duplicate of op, the client being at latest.
func (s *Server) refuseStale(c *command, op, latest uint64) any {
	s.m.dedupStale.Add(1)
	s.curSpan.Annotate("stale duplicate")
	return c.Status(statusFor(fmt.Errorf("%w: op %d, client at %d", ErrStaleOp, op, latest)))
}

// lookup finds a file's directory entry.
func (s *Server) lookup(name string) (*dirent, error) {
	if ent, ok := s.dir[name]; ok {
		return ent, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
}

// sortedNames lists the directory in name order, the order every sweep
// and snapshot uses so runs replay deterministically.
func (s *Server) sortedNames() []string {
	names := make([]string, 0, len(s.dir))
	for name := range s.dir {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// create validates the request, commits the new directory entry, and then
// creates the constituent LFS file on every node; if that fails the entry
// is taken back out.
func (s *Server) create(p sim.Proc, from msg.Addr, r CreateReq) (CreateResp, error) {
	if r.Spec.Kind == distrib.Disordered && s.grp != nil {
		return CreateResp{}, fmt.Errorf("%w: disordered placement is unsupported on a replicated server", ErrBadArg)
	}
	meta, err := s.planCreate(r)
	if err != nil {
		return CreateResp{}, err
	}
	op := rop{Kind: ropCreate, Client: from, Op: r.OpID, Name: r.Name, Meta: meta, NextID: s.nextID + 1}
	if err := s.commit(p, op); err != nil {
		return CreateResp{}, err
	}
	if err := s.lfsCreate(p, meta.Nodes, meta.LFSFileID, r.Tree); err != nil {
		fix := rop{Kind: ropFixup, Client: from, Op: r.OpID, Name: r.Name, Blocks: -1}
		if cerr := s.commit(p, fix); cerr != nil {
			return CreateResp{}, cerr
		}
		return CreateResp{}, err
	}
	return CreateResp{Meta: meta}, nil
}

// planCreate validates a create request against the current directory and
// resolves its placement without touching any state: it returns the
// metadata the file gets once the create commits. A rejected create burns
// no file id — the counter moves only inside apply.
func (s *Server) planCreate(r CreateReq) (Meta, error) {
	if r.Name == "" {
		return Meta{}, fmt.Errorf("%w: empty name", ErrBadArg)
	}
	if _, dup := s.dir[r.Name]; dup {
		return Meta{}, fmt.Errorf("%w: %s", ErrExists, r.Name)
	}
	spec := r.Spec
	if spec.Kind == 0 {
		spec.Kind = distrib.RoundRobin
	}
	if spec.P == 0 {
		spec.P = len(s.nodes)
	}
	if spec.P > len(s.nodes) {
		return Meta{}, fmt.Errorf("%w: P %d exceeds cluster size %d", ErrBadArg, spec.P, len(s.nodes))
	}
	if spec.Kind == distrib.Chunked && spec.TotalBlocks == 0 {
		return Meta{}, distrib.ErrNeedSize
	}
	if spec.Kind != distrib.Disordered {
		if _, err := distrib.New(spec); err != nil {
			return Meta{}, err
		}
	}
	fileID := s.cfg.IDBase + (s.nextID+1)*s.cfg.IDStride
	nodes := append([]msg.NodeID(nil), s.nodes[:spec.P]...)
	if len(r.Subset) > 0 {
		if len(r.Subset) != spec.P {
			return Meta{}, fmt.Errorf("%w: subset of %d nodes for P=%d", ErrBadArg, len(r.Subset), spec.P)
		}
		nodes = nodes[:0]
		for _, idx := range r.Subset {
			if idx < 0 || idx >= len(s.nodes) {
				return Meta{}, fmt.Errorf("%w: subset index %d out of range", ErrBadArg, idx)
			}
			nodes = append(nodes, s.nodes[idx])
		}
	}
	meta := Meta{
		Name:      r.Name,
		FileID:    fileID,
		LFSFileID: fileID,
		Spec:      spec,
		Nodes:     nodes,
	}
	if spec.Kind == distrib.Disordered {
		meta.Chain = &ChainInfo{LocalCounts: make([]int64, spec.P)}
	}
	return meta, nil
}

// lfsCreate creates the constituent LFS file on every placement node —
// starting all the LFS operations before waiting for them, with
// sequential initiation (the paper's measured behavior), or through the
// embedded binary tree when tree is set: one call to the agent of the root,
// nodes[0], which answers for its whole subtree. Nothing is sent when a node
// is already declared dead. A node that already has the file is fine when
// the effect may have run before (ranBefore); otherwise it runs once and
// reports it.
func (s *Server) lfsCreate(p sim.Proc, nodes []msg.NodeID, fileID uint32, tree bool) error {
	var op any = lfs.CreateReq{FileID: fileID}
	if tree {
		if err := s.anyDown(nodes); err != nil {
			return err
		}
		req := lfs.TreeReq{Targets: nodes, Op: op, OpSize: lfs.WireSize(op)}
		c, err := s.lfsStart(nodes[0], lfs.AgentPortName, req)
		if err != nil {
			return err
		}
		m, err := s.lfsFinish(p, c)
		if err != nil {
			return lfsErr(err)
		}
		if _, err := lfs.Reply[lfs.TreeResp](m, nil); err != nil && !(s.ranBefore(c, m) && errors.Is(err, efs.ErrExists)) {
			return fmt.Errorf("%w: %w", ErrLFSFailed, err)
		}
		return nil
	}
	calls, err := s.lfsFanout(p, nodes, op, false)
	if err != nil {
		return err
	}
	for _, c := range calls {
		if _, err := lfs.Reply[lfs.CreateResp](c.reply, nil); err != nil && !(s.ranBefore(c.lfsPend, c.reply) && errors.Is(err, efs.ErrExists)) {
			return fmt.Errorf("%w: %w", ErrLFSFailed, err)
		}
	}
	return nil
}

// remove takes a file out of the directory and returns its final
// metadata. Delete (kind ropDelete) then frees the constituent LFS files in
// parallel — each LFS traverses its local chain freeing blocks, so the
// operation takes O(n/p). Release (kind ropRelease) leaves them to the
// caller, the toolkit's parallel delete, which frees them on the nodes.
// Buffered write-behind data has nowhere to go and is dropped; cursors and
// read-ahead windows go with the entry.
func (s *Server) remove(p sim.Proc, from msg.Addr, name string, opID uint64, kind uint8) (Meta, int, error) {
	ent, err := s.lookup(name)
	if err != nil {
		return Meta{}, 0, err
	}
	s.raInvalidate(name)
	s.wbDrop(ent)
	meta := ent.meta
	op := rop{Kind: kind, Client: from, Op: opID, Name: name}
	if kind == ropDelete {
		// The entry carries the placement so a takeover can replay the
		// frees after the directory has forgotten the file.
		op.Meta = meta
	}
	if err := s.commit(p, op); err != nil {
		return Meta{}, 0, err
	}
	if kind == ropRelease {
		return meta, 0, nil
	}
	freed, err := s.lfsDelete(p, meta)
	return meta, freed, err
}

// lfsDelete removes the constituent LFS files of an (already unregistered)
// file. It is the one best-effort fan-out: the directory has forgotten the
// file, so every node that can be reached frees its share and the first
// failure is reported afterwards. A node that no longer has the file is fine
// when the effect may have run before (ranBefore; what that run freed is
// then lost to the count).
func (s *Server) lfsDelete(p sim.Proc, meta Meta) (int, error) {
	op := lfs.DeleteReq{FileID: meta.LFSFileID}
	calls, firstErr := s.lfsFanout(p, meta.Nodes, op, true)
	freed := 0
	for _, c := range calls {
		if c.reply == nil {
			continue
		}
		resp, err := lfs.Reply[lfs.DeleteResp](c.reply, nil)
		freed += resp.Freed
		if err != nil && firstErr == nil && !(s.ranBefore(c.lfsPend, c.reply) && errors.Is(err, efs.ErrNotFound)) {
			firstErr = fmt.Errorf("%w: %w", ErrLFSFailed, err)
		}
	}
	return freed, firstErr
}

// rename moves a file to a new name. The constituent LFS files are keyed
// by file id, not name, so this is a pure directory mutation: no storage
// node is touched. Dirty write-behind state is drained first so a deferred
// failure surfaces against the name the writes were acknowledged under.
func (s *Server) rename(p sim.Proc, from msg.Addr, r RenameReq) (RenameResp, error) {
	if r.Name == "" || r.NewName == "" {
		return RenameResp{}, fmt.Errorf("%w: empty name", ErrBadArg)
	}
	ent, err := s.lookup(r.Name)
	if err != nil {
		return RenameResp{}, err
	}
	if r.NewName == r.Name {
		return RenameResp{Meta: ent.meta}, nil
	}
	if _, exists := s.dir[r.NewName]; exists {
		return RenameResp{}, fmt.Errorf("%w: %s", ErrExists, r.NewName)
	}
	if _, err := s.drainWB(p, r.Name, from, r.OpID); err != nil {
		return RenameResp{}, err
	}
	s.raInvalidate(r.Name)
	op := rop{Kind: ropRename, Client: from, Op: r.OpID, Name: r.Name, New: r.NewName}
	if err := s.commit(p, op); err != nil {
		return RenameResp{}, err
	}
	return RenameResp{Meta: ent.meta}, nil
}

// flush drains the write-behind state of one file (or of every file when
// the name is empty) and then syncs the touched storage nodes, making
// every acknowledged write durable. It is the explicit group-commit
// barrier; a deferred write failure surfaces here, wrapped in
// ErrDeferredWrite.
func (s *Server) flush(p sim.Proc, from msg.Addr, r FlushReq) (FlushResp, error) {
	var (
		flushed int
		err     error
		nodes   = s.nodes
	)
	if r.Name == "" {
		flushed, err = s.drainWBAll(p, from, r.OpID)
	} else {
		var ent *dirent
		if ent, err = s.lookup(r.Name); err != nil {
			return FlushResp{}, err
		}
		nodes = ent.meta.Nodes
		flushed, err = s.drainWB(p, r.Name, from, r.OpID)
	}
	if err == nil {
		err = s.lease(p)
	}
	if err != nil {
		return FlushResp{Flushed: flushed}, err
	}
	return FlushResp{Flushed: flushed}, s.syncNodes(p, nodes)
}

// syncNodes issues a parallel metadata sync to the given storage nodes —
// the scatter-gather barrier behind an explicit Flush.
func (s *Server) syncNodes(p sim.Proc, nodes []msg.NodeID) error {
	op := lfs.SyncReq{}
	calls, err := s.lfsFanout(p, nodes, op, false)
	if err != nil {
		return err
	}
	for _, c := range calls {
		if _, err := lfs.Reply[lfs.SyncResp](c.reply, nil); err != nil {
			return fmt.Errorf("%w: %w", ErrLFSFailed, err)
		}
	}
	return nil
}

// landedSize is a formulaic file's size as its storage nodes hold it: the
// contiguous prefix of global blocks they have all landed. One parallel stat
// gives each node's block count. Without a hole the prefix is their sum, and
// for a closed-form layout the sum's last block being the highest any node
// holds proves there is none. A group commit that landed on some nodes and
// not others (a deferred write failure, a failover mid-window) leaves holes;
// then the prefix ends at the first global block whose node ran out.
func (s *Server) landedSize(p sim.Proc, ent *dirent) (int64, error) {
	op := lfs.StatReq{FileID: ent.meta.LFSFileID}
	calls, err := s.lfsFanout(p, ent.meta.Nodes, op, false)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, c := range calls {
		resp, err := lfs.Reply[lfs.StatResp](c.reply, nil)
		if err != nil {
			return 0, fmt.Errorf("%w: %w", ErrLFSFailed, err)
		}
		total += int64(resp.Info.Blocks)
	}
	l, err := ent.layout()
	if err != nil {
		return 0, err
	}
	count := func(i int) int64 { return int64(calls[i].reply.Body.(lfs.StatResp).Info.Blocks) }
	if ent.meta.Spec.Kind != distrib.Hashed { // hashed has no closed-form inverse
		top := int64(-1)
		for i := range calls {
			if n := count(i); n > 0 {
				top = max(top, l.GlobalFor(i, n-1))
			}
		}
		if top == total-1 {
			return total, nil
		}
	}
	used := make([]int64, len(calls))
	var g int64
	for ; g < total; g++ {
		i := l.NodeFor(g)
		if used[i]++; used[i] > count(i) {
			break
		}
	}
	return g, nil
}

// refreshSize settles who knows a file's size at an open, stat or implicit
// open. A group of one asks the storage nodes (landedSize) — the startup
// work that Open pays for — because tools write constituent files behind
// its back. A
// replicated group trusts its log, the only size every member agrees on
// (so tool writes behind it are a known hole: DESIGN.md). Disordered files
// keep their count in the chain state (tools cannot write them behind the
// server's back, since only the server knows the chain). The caller has
// drained write-behind.
func (s *Server) refreshSize(p sim.Proc, ent *dirent) error {
	if s.grp != nil {
		return nil
	}
	if ent.meta.Spec.Kind == distrib.Disordered {
		var total int64
		for _, c := range ent.meta.Chain.LocalCounts {
			total += c
		}
		ent.meta.Blocks = total
		return nil
	}
	size, err := s.landedSize(p, ent)
	if err != nil {
		return err
	}
	ent.meta.Blocks = size
	return nil
}

// open serves Open and Stat: both settle the file's size and return its
// metadata; Open (rewind set) also creates or rewinds the client's
// sequential cursor. That commit proves leadership by itself; Stat commits
// nothing, so it answers only under the lease.
func (s *Server) open(p sim.Proc, from msg.Addr, name string, rewind bool) (Meta, error) {
	ent, err := s.lookup(name)
	if err != nil {
		return Meta{}, err
	}
	if _, err := s.drainWB(p, name, from, 0); err != nil {
		return Meta{}, err
	}
	if err := s.refreshSize(p, ent); err != nil {
		return Meta{}, err
	}
	if rewind {
		err = s.commit(p, rop{Kind: ropOpen, Client: from, Name: name})
	} else {
		err = s.lease(p)
	}
	if err != nil {
		return Meta{}, err
	}
	return ent.meta, nil
}

// nodeIndex maps a storage node's network ID back to its 0-based cluster
// index (its position in interleaving order), or -1 if unknown.
func (s *Server) nodeIndex(id msg.NodeID) int {
	for i, n := range s.nodes {
		if n == id {
			return i
		}
	}
	return -1
}

// lfsReadStart starts the read of one global block on the right LFS.
func (s *Server) lfsReadStart(ent *dirent, blockNum int64) (lfsPend, error) {
	l, err := ent.layout()
	if err != nil {
		return lfsPend{}, err
	}
	node := ent.meta.Nodes[l.NodeFor(blockNum)]
	req := lfs.ReadReq{FileID: ent.meta.LFSFileID, BlockNum: uint32(l.LocalFor(blockNum)), Hint: ent.hintFor(node)}
	return s.lfsStart(node, lfs.PortName, req)
}

// lfsReadFinish collects a started read and returns the block's Bridge
// header and payload. blockNum only names the block in a corruption report.
func (s *Server) lfsReadFinish(p sim.Proc, ent *dirent, blockNum int64, c lfsPend) (BlockHeader, []byte, error) {
	m, err := s.lfsFinish(p, c)
	if err != nil {
		return BlockHeader{}, nil, lfsErr(err)
	}
	resp, err := lfs.Reply[lfs.ReadResp](m, nil)
	if err != nil {
		if errors.Is(err, efs.ErrCorrupt) {
			// Integrity failures name the exact node and block: for an
			// unreplicated file this is the fail-fast diagnostic; for a
			// replicated one the replica layer uses it to repair. The node
			// is named by its cluster index — the space Fsck, Scrub, and
			// RepairNode operate in.
			return BlockHeader{}, nil, fmt.Errorf("%w: node %d lfs file %d local block %d (global block %d): %w",
				ErrLFSFailed, s.nodeIndex(c.Node), ent.meta.LFSFileID, c.body.(lfs.ReadReq).BlockNum, blockNum, err)
		}
		return BlockHeader{}, nil, fmt.Errorf("%w: %w", ErrLFSFailed, err)
	}
	ent.hints[c.Node] = resp.Addr
	return DecodeBlock(resp.Data)
}

// lfsRead fetches one global block through the right LFS and returns its
// payload.
func (s *Server) lfsRead(p sim.Proc, ent *dirent, blockNum int64) ([]byte, error) {
	c, err := s.lfsReadStart(ent, blockNum)
	if err != nil {
		return nil, err
	}
	_, payload, err := s.lfsReadFinish(p, ent, blockNum, c)
	return payload, err
}

func (ent *dirent) hintFor(node msg.NodeID) int32 {
	if h, ok := ent.hints[node]; ok {
		return h
	}
	return -1
}

// lfsWriteStart starts the write of one global block on the right LFS.
func (s *Server) lfsWriteStart(ent *dirent, blockNum int64, payload []byte) (lfsPend, error) {
	l, err := ent.layout()
	if err != nil {
		return lfsPend{}, err
	}
	node := ent.meta.Nodes[l.NodeFor(blockNum)]
	data := EncodeBlock(BlockHeader{
		FileID:      ent.meta.FileID,
		GlobalBlock: blockNum,
		P:           uint16(ent.meta.Spec.P),
		Start:       uint16(ent.meta.Spec.Start),
	}, payload)
	s.nextLFSOp++
	req := lfs.WriteReq{FileID: ent.meta.LFSFileID, BlockNum: uint32(l.LocalFor(blockNum)), Data: data, Hint: ent.hintFor(node), OpID: s.nextLFSOp}
	return s.lfsStart(node, lfs.PortName, req)
}

// lfsWriteFinish collects a started write.
func (s *Server) lfsWriteFinish(p sim.Proc, ent *dirent, c lfsPend) error {
	m, err := s.lfsFinish(p, c)
	if err != nil {
		return lfsErr(err)
	}
	resp, err := lfs.Reply[lfs.WriteResp](m, nil)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrLFSFailed, err)
	}
	ent.hints[c.Node] = resp.Addr
	return nil
}

// lfsWrite stores one global block through the right LFS.
func (s *Server) lfsWrite(p sim.Proc, ent *dirent, blockNum int64, payload []byte) error {
	c, err := s.lfsWriteStart(ent, blockNum, payload)
	if err != nil {
		return err
	}
	return s.lfsWriteFinish(p, ent, c)
}

// nodeAt validates a storage-node index from a maintenance request.
func (s *Server) nodeAt(idx int) (msg.NodeID, error) {
	if idx < 0 || idx >= len(s.nodes) {
		return 0, fmt.Errorf("%w: node index %d of %d", ErrBadArg, idx, len(s.nodes))
	}
	return s.nodes[idx], nil
}

// sweepBarrier precedes a storage-node sweep (repair, fsck, scrub): the
// server must still hold its lease, and every acknowledged write must land
// (or fail visibly) first, so the sweep sees every acknowledged block and
// an in-flight group commit to a restarted node surfaces as a
// deferred-write error rather than being lost.
func (s *Server) sweepBarrier(p sim.Proc, from msg.Addr, opID uint64) error {
	if err := s.lease(p); err != nil {
		return err
	}
	_, err := s.drainWBAll(p, from, opID)
	return err
}

// repairNode re-registers on storage node index r.Node the LFS file of
// every Bridge file placed there. A restarted node's EFS directory reverts
// to its last-synced state, so files created after that sync are gone at
// the LFS level even though the Bridge directory still lists them;
// re-creating them (tolerating "exists" for the survivors) makes every
// placement reachable again, with the lost blocks left for replica-layer
// repair. Iteration is in sorted name order so chaos runs replay
// deterministically.
func (s *Server) repairNode(p sim.Proc, from msg.Addr, r RepairNodeReq) (RepairNodeResp, error) {
	node, err := s.nodeAt(r.Node)
	if err != nil {
		return RepairNodeResp{}, err
	}
	if err := s.sweepBarrier(p, from, r.OpID); err != nil {
		return RepairNodeResp{}, err
	}
	if s.ra != nil {
		// Any buffered or in-flight block might predate the crash.
		s.ra.invalidateAll()
	}
	repaired := 0
	for _, name := range s.sortedNames() {
		ent := s.dir[name]
		placed := false
		for _, n := range ent.meta.Nodes {
			if n == node {
				placed = true
				break
			}
		}
		if !placed {
			continue
		}
		op := lfs.CreateReq{FileID: ent.meta.LFSFileID}
		m, err := s.lfsCall(p, node, op)
		if err != nil {
			return RepairNodeResp{Files: repaired}, lfsErr(err)
		}
		if _, err := lfs.Reply[lfs.CreateResp](m, nil); err != nil && !errors.Is(err, efs.ErrExists) {
			return RepairNodeResp{Files: repaired}, fmt.Errorf("%w: %w", ErrLFSFailed, err)
		}
		// Any cached block-address hint for this node predates the crash.
		delete(ent.hints, node)
		repaired++
	}
	s.m.nodeRepairs.Add(1)
	return RepairNodeResp{Files: repaired}, nil
}

// fsck runs the LFS-level consistency checker on one storage node.
func (s *Server) fsck(p sim.Proc, from msg.Addr, r FsckReq) (FsckResp, error) {
	node, err := s.nodeAt(r.Node)
	if err != nil {
		return FsckResp{}, err
	}
	if err := s.sweepBarrier(p, from, r.OpID); err != nil {
		return FsckResp{}, err
	}
	resp, err := lfsCallAs[lfs.CheckResp](s, p, node, lfs.CheckReq{Repair: r.Repair})
	return FsckResp{Report: resp.Report, Fixes: resp.Fixes}, err
}

// recovery fetches one storage node's boot recovery report.
func (s *Server) recovery(p sim.Proc, _ msg.Addr, r RecoveryReq) (RecoveryResp, error) {
	node, err := s.nodeAt(r.Node)
	if err != nil {
		return RecoveryResp{}, err
	}
	if err := s.lease(p); err != nil {
		return RecoveryResp{}, err
	}
	resp, err := lfsCallAs[lfs.RecoveryResp](s, p, node, lfs.RecoveryReq{})
	return RecoveryResp{Report: resp.Report}, err
}

// scrub runs a full checksum-verification sweep on one storage node.
func (s *Server) scrub(p sim.Proc, from msg.Addr, r ScrubReq) (ScrubResp, error) {
	node, err := s.nodeAt(r.Node)
	if err != nil {
		return ScrubResp{}, err
	}
	if err := s.sweepBarrier(p, from, 0); err != nil {
		return ScrubResp{}, err
	}
	resp, err := lfsCallAs[lfs.ScrubResp](s, p, node, lfs.ScrubReq{Full: true})
	return ScrubResp{Report: resp.Report}, err
}

// parallelOpen groups the workers into a job on the file. Job cursors are
// volatile per-process state that would vanish on failover, so only a
// group of one offers jobs; with no job to name, the other job commands
// answer ErrNoJob on a replicated group.
func (s *Server) parallelOpen(p sim.Proc, _ msg.Addr, r ParallelOpenReq) (ParallelOpenResp, error) {
	if s.grp != nil {
		return ParallelOpenResp{}, fmt.Errorf("%w: parallel transfer jobs are unsupported on a replicated server", ErrBadArg)
	}
	ent, err := s.lookup(r.Name)
	if err != nil {
		return ParallelOpenResp{}, err
	}
	if len(r.Workers) == 0 {
		return ParallelOpenResp{}, fmt.Errorf("%w: no workers", ErrBadArg)
	}
	if _, err := s.drainWB(p, r.Name, msg.Addr{}, 0); err != nil {
		return ParallelOpenResp{}, err
	}
	if err := s.refreshSize(p, ent); err != nil {
		return ParallelOpenResp{}, err
	}
	s.nextJob++
	j := &job{
		id:      s.nextJob,
		name:    r.Name,
		workers: append([]msg.Addr(nil), r.Workers...),
		port:    s.net.NewPort(msg.Addr{Node: s.cfg.Node, Port: fmt.Sprintf("%s.job%d", s.cfg.PortName, s.nextJob)}),
	}
	s.jobs[j.id] = j
	return ParallelOpenResp{JobID: j.id, Meta: ent.meta}, nil
}

// parallelRead transfers the next t blocks, one to each worker. When t
// exceeds the interleaving breadth p, the server performs groups of p disk
// accesses in parallel until the request is satisfied ("virtual
// parallelism"), which forces the workers to proceed in lock step.
func (s *Server) parallelRead(p sim.Proc, _ msg.Addr, r ParallelReadReq) (ParallelReadResp, error) {
	j, ok := s.jobs[r.JobID]
	if !ok {
		return ParallelReadResp{}, ErrNoJob
	}
	ent, err := s.lookup(j.name)
	if err != nil {
		return ParallelReadResp{}, err
	}
	if _, err := s.drainWB(p, j.name, msg.Addr{}, 0); err != nil {
		return ParallelReadResp{}, err
	}
	t := len(j.workers)
	pWidth := ent.meta.Spec.P
	delivered := 0
	for gStart := 0; gStart < t; gStart += pWidth {
		gEnd := min(gStart+pWidth, t)
		// Start the group's reads (they fall on distinct nodes under
		// round-robin), then deliver them in worker order. After a failure
		// the rest of the group is discarded.
		var err error
		calls := make([]lfsPend, 0, gEnd-gStart)
		for i := gStart; i < gEnd && j.readPos+int64(i) < ent.meta.Blocks && err == nil; i++ {
			var c lfsPend
			if c, err = s.lfsReadStart(ent, j.readPos+int64(i)); err == nil {
				calls = append(calls, c)
			}
		}
		for k, c := range calls {
			if err != nil {
				s.lc.Discard(c.Call)
				continue
			}
			seq := j.readPos + int64(gStart+k)
			var payload []byte
			if _, payload, err = s.lfsReadFinish(p, ent, seq, c); err != nil {
				continue
			}
			wd := WorkerData{JobID: j.id, Seq: seq, Data: payload}
			_ = s.net.Send(p, s.cfg.Node, j.workers[gStart+k], oneWayMsg(s.port.Addr(), wd))
			delivered++
		}
		if err != nil {
			return ParallelReadResp{Delivered: delivered}, err
		}
		if len(calls) < gEnd-gStart {
			break // hit EOF inside this group
		}
	}
	// Tell workers past the end of file that this round has nothing.
	for i := delivered; i < t; i++ {
		wd := WorkerData{JobID: j.id, Seq: j.readPos + int64(i), EOF: true}
		_ = s.net.Send(p, s.cfg.Node, j.workers[i], oneWayMsg(s.port.Addr(), wd))
	}
	j.readPos += int64(delivered)
	return ParallelReadResp{Delivered: delivered, EOF: j.readPos >= ent.meta.Blocks}, nil
}

// parallelWrite appends t blocks, one from each worker, in lock-step groups
// of p.
func (s *Server) parallelWrite(p sim.Proc, _ msg.Addr, r ParallelWriteReq) (ParallelWriteResp, error) {
	j, ok := s.jobs[r.JobID]
	if !ok {
		return ParallelWriteResp{}, ErrNoJob
	}
	ent, err := s.lookup(j.name)
	if err != nil {
		return ParallelWriteResp{}, err
	}
	s.raInvalidate(j.name)
	if _, err := s.drainWB(p, j.name, msg.Addr{}, 0); err != nil {
		return ParallelWriteResp{}, err
	}
	t := len(j.workers)
	pWidth := ent.meta.Spec.P
	written := 0
	done := false
	for gStart := 0; gStart < t && !done; gStart += pWidth {
		gEnd := gStart + pWidth
		if gEnd > t {
			gEnd = t
		}
		// Poke the group's workers, then collect their blocks.
		for i := gStart; i < gEnd; i++ {
			wp := WorkerPoke{JobID: j.id, Seq: ent.meta.Blocks + int64(i-gStart)}
			_ = s.net.Send(p, s.cfg.Node, j.workers[i], oneWayMsg(j.port.Addr(), wp))
		}
		blocks := make([]WorkerBlock, 0, gEnd-gStart)
		for i := gStart; i < gEnd; i++ {
			m, ok, timedOut := j.port.RecvTimeout(p, s.cfg.LFSTimeout)
			if timedOut || !ok {
				return ParallelWriteResp{Written: written}, fmt.Errorf("%w: worker block missing", ErrLFSFailed)
			}
			wb, isWB := m.Body.(WorkerBlock)
			if !isWB {
				return ParallelWriteResp{Written: written}, fmt.Errorf("%w: unexpected %T on job port", ErrBadArg, m.Body)
			}
			blocks = append(blocks, wb)
		}
		sort.Slice(blocks, func(a, b int) bool { return blocks[a].Seq < blocks[b].Seq })
		// The group's data blocks must all precede its first EOF.
		n := 0
		for _, wb := range blocks {
			switch {
			case wb.EOF:
				done = true
			case done:
				return ParallelWriteResp{Written: written}, fmt.Errorf("%w: worker data after another worker's EOF", ErrBadArg)
			case len(wb.Data) > PayloadBytes:
				return ParallelWriteResp{Written: written}, fmt.Errorf("%w: payload %d exceeds %d", ErrBadArg, len(wb.Data), PayloadBytes)
			default:
				n++
			}
		}
		// Overlap the group's LFS writes: start them all (the blocks of
		// a group land on distinct nodes under round-robin), then wait.
		// After a failure the rest of the group is discarded: the size
		// covers exactly the prefix that landed.
		var err error
		base := ent.meta.Blocks
		calls := make([]lfsPend, 0, n)
		for i := 0; i < n && err == nil; i++ {
			var c lfsPend
			if c, err = s.lfsWriteStart(ent, base+int64(i), blocks[i].Data); err == nil {
				calls = append(calls, c)
			}
		}
		for _, c := range calls {
			if err != nil {
				s.lc.Discard(c.Call)
			} else if err = s.lfsWriteFinish(p, ent, c); err == nil {
				ent.meta.Blocks++
				written++
			}
		}
		if err != nil {
			return ParallelWriteResp{Written: written}, err
		}
	}
	return ParallelWriteResp{Written: written}, nil
}

package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"bridge/internal/distrib"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/sim"
)

// Client is the naive-view Bridge client: ordinary sequential file access
// with the server transparently forwarding to the right LFS. A Client is
// owned by a single process.
//
// A Client may talk to one Bridge Server or to a distributed collection of
// them (the paper: "the same functionality could be provided by a
// distributed collection of processes"). The unified topology is shard
// groups × members: file names hash-partition across the groups, and
// within a group the members are Raft replicas of that shard's directory.
// An unreplicated multi-server deployment is the degenerate case of
// size-1 groups; a PR 9-style single replicated group is one group of
// Replicas members.
type Client struct {
	mc *msg.Client
	// groups[g] lists shard g's member addresses; member holds each
	// address's (group, index-within-group) for reverse lookup.
	groups  [][]msg.Addr
	member  map[msg.Addr]memberIx
	timeout time.Duration
	retry   *retrier // nil = no retransmission
	nextOp  uint64
	retries obs.Counter

	// Replicated mode: each group's members are Raft replicas of one
	// shard. Per-shard traffic routes to that group's leader guess, which
	// NotLeader redirects and timeouts update independently per shard.
	replicated bool
	leaders    []int
}

// memberIx locates an address within the shard topology.
type memberIx struct{ shard, index int }

// NewClient creates a Bridge client for proc, homed on node, talking to the
// server at serverAddr. name must be unique on the node.
func NewClient(proc sim.Proc, net *msg.Network, node msg.NodeID, name string, serverAddr msg.Addr) *Client {
	return NewMultiClient(proc, net, node, name, []msg.Addr{serverAddr})
}

// NewMultiClient creates a client over a distributed collection of
// unreplicated Bridge Servers: each server is its own size-1 shard group.
func NewMultiClient(proc sim.Proc, net *msg.Network, node msg.NodeID, name string, servers []msg.Addr) *Client {
	if len(servers) == 0 {
		panic("core: client needs at least one server")
	}
	groups := make([][]msg.Addr, len(servers))
	for i, a := range servers {
		groups[i] = []msg.Addr{a}
	}
	return newShardClient(proc, net, node, name, groups)
}

// NewReplicatedClient creates a client over sharded, Raft-replicated
// Bridge Server groups: groups[g] lists the replicas of shard g's
// directory. Per-shard traffic routes to that group's current leader,
// discovered by following NotLeader redirects and rotating on timeout.
// The default timeout is short — it is what detects a dead leader.
func NewReplicatedClient(proc sim.Proc, net *msg.Network, node msg.NodeID, name string, groups [][]msg.Addr) *Client {
	c := newShardClient(proc, net, node, name, groups)
	c.replicated = true
	c.timeout = time.Second
	return c
}

func newShardClient(proc sim.Proc, net *msg.Network, node msg.NodeID, name string, groups [][]msg.Addr) *Client {
	if len(groups) == 0 {
		panic("core: client needs at least one server group")
	}
	c := &Client{
		mc:      msg.NewClient(proc, net, node, name),
		groups:  make([][]msg.Addr, len(groups)),
		member:  make(map[msg.Addr]memberIx),
		leaders: make([]int, len(groups)),
		timeout: 10 * time.Minute, // covers the longest legitimate operation
		retries: net.Stats().Registry().Counter("bridge.client_retries", "calls", "Client-level retransmissions of timed-out Bridge calls."),
	}
	for g, members := range groups {
		if len(members) == 0 {
			panic("core: empty server group")
		}
		c.groups[g] = append([]msg.Addr(nil), members...)
		for i, a := range members {
			c.member[a] = memberIx{shard: g, index: i}
		}
	}
	return c
}

// NameShard is the name→shard hash: FNV-1a over the file name, reduced
// modulo the shard-group count. It is a pure function of (name, shards) —
// stable across runs, processes, and client instances — because both the
// client's routing and any external tooling must agree on which group
// owns a name.
func NameShard(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return int(h % uint32(shards))
}

// shardFor routes a file name to its home shard group.
func (c *Client) shardFor(name string) int { return NameShard(name, len(c.groups)) }

// serverFor routes a file name to its home server: the owning shard's
// current leader guess (replicated) or its single server (unreplicated).
func (c *Client) serverFor(name string) msg.Addr {
	g := c.shardFor(name)
	return c.groups[g][c.leaders[g]]
}

// SetTimeout changes the per-call timeout (0 disables).
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// SetRetry enables retransmission of timed-out calls under the given
// policy. Mutating requests carry operation ids, so a retry whose original
// was actually executed (only the reply was lost) gets the cached result
// back instead of running twice. Pair this with a timeout well below the
// longest backoff-free operation.
func (c *Client) SetRetry(p RetryPolicy) { c.retry = newRetrier(p) }

// opID returns the next operation id for a mutating request.
func (c *Client) opID() uint64 {
	c.nextOp++
	return c.nextOp
}

// targets lists the servers a cluster-wide operation must visit: one
// representative per shard group — every hash partition, but only one
// replica of a replicated group, since the redirect loop finds that
// group's leader, which serves the whole shard.
func (c *Client) targets() []msg.Addr {
	out := make([]msg.Addr, len(c.groups))
	for g := range c.groups {
		out[g] = c.groups[g][c.leaders[g]]
	}
	return out
}

// first returns a representative address for shard 0 — the target for
// cluster-structure requests (Fsck, Scrub, GetInfo) any server can answer.
func (c *Client) first() msg.Addr { return c.groups[0][c.leaders[0]] }

// Msg exposes the underlying message client, for tools that mix Bridge
// calls with direct LFS traffic.
func (c *Client) Msg() *msg.Client { return c.mc }

// Close releases the client's reply port.
func (c *Client) Close() { c.mc.Close() }

// call sends a request to the server its command routes it to: the home of
// the name it carries, or the first server.
func (c *Client) call(body any) (*msg.Message, error) {
	cmd, to := commands.Of(body), c.first()
	if name, ok := cmd.Route(body); ok {
		to = c.serverFor(name)
	}
	return c.send(to, cmd, body)
}

// callAt targets a specific server (used for job requests, which must go
// to the server that owns the job).
func (c *Client) callAt(to msg.Addr, body any) (*msg.Message, error) {
	return c.send(to, commands.Of(body), body)
}

// send is every call's end: the request goes to the given server. With a
// retry policy installed, calls that time out are retransmitted with the
// same body — and so the same OpID — under capped exponential backoff. In
// replicated mode the target pins the shard group (and seeds its leader
// guess); the redirect loop still hunts within the group, since the named
// replica may not lead.
//
// When the network has a recorder, every call opens a fresh trace whose
// root span is the client operation; the server, LFS, and disk layers hang
// their spans off it via the context stamped on the outgoing messages.
func (c *Client) send(to msg.Addr, cmd *command, body any) (*msg.Message, error) {
	size := cmd.Size(body)
	rec := c.mc.Net().Recorder()
	var sp obs.SpanRef
	if rec != nil {
		tr := rec.NewTrace()
		sp = rec.Start(c.mc.Proc().Now(), tr, 0, "client."+cmd.Name, int(c.mc.Node()))
		c.mc.SetTrace(tr, sp.ID())
		defer c.mc.SetTrace(0, 0)
	}
	var m *msg.Message
	var err error
	if c.replicated {
		shard := 0
		if ix, ok := c.member[to]; ok {
			shard = ix.shard
			c.leaders[shard] = ix.index
		}
		m, err = c.callRedirect(shard, body, size, sp)
	} else {
		m, err = c.callOnce(to, body, size)
		if c.retry != nil {
			for retry := 1; retry < c.retry.p.Attempts && errors.Is(err, msg.ErrTimeout); retry++ {
				c.mc.Proc().Sleep(c.retry.backoff(retry))
				c.retries.Add(1)
				sp.Annotate(fmt.Sprintf("retry %d", retry))
				m, err = c.callOnce(to, body, size)
			}
		}
	}
	if rec != nil {
		errText := ""
		if err != nil {
			errText = err.Error()
		} else if m != nil {
			errText = respStatus(m.Body).Detail()
		}
		sp.EndErr(c.mc.Proc().Now(), errText)
	}
	return m, err
}

// redirectBackoff paces the client's leader hunt so a replica set in the
// middle of an election is not hammered with doomed requests.
const redirectBackoff = 20 * time.Millisecond

// callRedirect drives one call against a shard's replica group: try that
// group's current leader guess, follow the "(leader=N)" hint in NotLeader
// replies, rotate to the next replica on timeout (the guessed leader may
// be dead), and give up after a few sweeps of the group. Each shard's
// leader guess is independent, so an election on one shard never disturbs
// routing to the others. Mutating requests carry OpIDs, so a retry whose
// original was executed replays the recorded reply instead of running
// twice.
func (c *Client) callRedirect(shard int, body any, size int, sp obs.SpanRef) (*msg.Message, error) {
	group := c.groups[shard]
	attempts := 6 * len(group)
	var m *msg.Message
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.mc.Proc().Sleep(redirectBackoff)
			c.retries.Add(1)
			sp.Annotate(fmt.Sprintf("redirect %d to shard %d replica %d", attempt, shard, c.leaders[shard]))
		}
		m, err = c.callOnce(group[c.leaders[shard]], body, size)
		if errors.Is(err, msg.ErrTimeout) {
			c.leaders[shard] = (c.leaders[shard] + 1) % len(group)
			continue
		}
		if err != nil {
			return nil, err
		}
		st := respStatus(m.Body)
		if st.Code() != codeNotLeader {
			return m, nil
		}
		if hint, ok := parseLeaderHint(st.Detail()); ok && hint >= 0 && hint < len(group) && hint != c.leaders[shard] {
			c.leaders[shard] = hint
		} else {
			c.leaders[shard] = (c.leaders[shard] + 1) % len(group)
		}
	}
	// Out of attempts: surface whatever we last saw — a timeout or a
	// NotLeader reply, which the caller's reply turns into ErrNotLeader.
	return m, err
}

// parseLeaderHint extracts N from the "leader=N" fragment of a not-leader
// reply's detail, as notLeaderError wrote it.
func parseLeaderHint(s string) (int, bool) {
	i := strings.Index(s, "leader=")
	if i < 0 {
		return 0, false
	}
	j := i + len("leader=")
	neg := false
	if j < len(s) && s[j] == '-' {
		neg = true
		j++
	}
	n, found := 0, false
	for ; j < len(s) && s[j] >= '0' && s[j] <= '9'; j++ {
		n = n*10 + int(s[j]-'0')
		found = true
	}
	if neg {
		n = -n
	}
	return n, found
}

func (c *Client) callOnce(to msg.Addr, body any, size int) (*msg.Message, error) {
	if c.timeout > 0 {
		return c.mc.CallTimeout(to, body, size, c.timeout) //bridgevet:allow untimedwait — the client protocol, not a storage node
	}
	return c.mc.Call(to, body, size) //bridgevet:allow untimedwait — the client protocol, not a storage node
}

// Create creates an interleaved file across all nodes with round-robin
// placement — the common case.
func (c *Client) Create(name string) (Meta, error) {
	return c.CreateSpec(name, distrib.Spec{}, false)
}

// CreateSpec creates a file with explicit placement; tree selects
// binary-tree initiation of the per-LFS creates.
func (c *Client) CreateSpec(name string, spec distrib.Spec, tree bool) (Meta, error) {
	r, err := reply[CreateResp](c.call(CreateReq{Name: name, Spec: spec, Tree: tree, OpID: c.opID()}))
	return r.Meta, err
}

// CreateDisordered creates a linked-list file whose blocks scatter
// arbitrarily across the nodes; sequential access follows the chain,
// random access is very slow (Section 3's "disordered files").
func (c *Client) CreateDisordered(name string) (Meta, error) {
	return c.CreateSpec(name, distrib.Spec{Kind: distrib.Disordered}, false)
}

// CreateSubset creates a file spanning an explicit subset of the cluster's
// storage nodes (indices into the node list); len(subset) must equal
// spec.P.
func (c *Client) CreateSubset(name string, spec distrib.Spec, subset []int) (Meta, error) {
	r, err := reply[CreateResp](c.call(CreateReq{Name: name, Spec: spec, Subset: subset, OpID: c.opID()}))
	return r.Meta, err
}

// Delete removes a file, returning the total number of blocks freed.
func (c *Client) Delete(name string) (int, error) {
	r, err := reply[DeleteResp](c.call(DeleteReq{Name: name, OpID: c.opID()}))
	return r.Freed, err
}

// Flush forces the server's write-behind buffer for the file down to the
// LFS layer and syncs the touched nodes — the explicit group-commit
// barrier. It returns how many buffered blocks the barrier pushed out. A
// deferred failure of an already-acknowledged write surfaces here, wrapped
// in ErrDeferredWrite, after the file's size has been rolled back to the
// contiguous prefix that landed.
func (c *Client) Flush(name string) (int, error) {
	r, err := reply[FlushResp](c.callAt(c.serverFor(name), FlushReq{Name: name, OpID: c.opID()}))
	return r.Flushed, err
}

// FlushAll flushes every buffered file on every server — the whole-session
// barrier Session.Sync uses. The first deferred error is returned after all
// servers have been flushed.
func (c *Client) FlushAll() (int, error) {
	total := 0
	var firstErr error
	for _, srv := range c.targets() {
		r, err := reply[FlushResp](c.callAt(srv, FlushReq{OpID: c.opID()}))
		total += r.Flushed
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// Rename atomically moves a file to a new name — a pure directory
// mutation; no storage node is touched. With more than one shard group
// both names must hash to the same shard: a rename is atomic within one
// group's directory (one Raft entry, or one unreplicated server's map),
// and Bridge has no cross-group transaction. Violations fail client-side
// with ErrCrossShard before any server sees the request.
func (c *Client) Rename(name, newName string) (Meta, error) {
	if len(c.groups) > 1 && c.shardFor(name) != c.shardFor(newName) {
		return Meta{}, fmt.Errorf("%w: %q (shard %d) -> %q (shard %d)",
			ErrCrossShard, name, c.shardFor(name), newName, c.shardFor(newName))
	}
	r, err := reply[RenameResp](c.call(RenameReq{Name: name, NewName: newName, OpID: c.opID()}))
	return r.Meta, err
}

// Release atomically unregisters a file from the Bridge directory and
// returns its final metadata — the parallel delete tool's first step. The
// constituent LFS files are untouched; freeing them is the caller's job.
func (c *Client) Release(name string) (Meta, error) {
	r, err := reply[ReleaseResp](c.call(ReleaseReq{Name: name, OpID: c.opID()}))
	return r.Meta, err
}

// Open opens a file: the server refreshes its size and resets this client's
// sequential-read cursor. There is no close.
func (c *Client) Open(name string) (Meta, error) {
	r, err := reply[OpenResp](c.call(OpenReq{Name: name}))
	return r.Meta, err
}

// Stat returns a file's metadata (with a fresh size) without touching
// cursors.
func (c *Client) Stat(name string) (Meta, error) {
	r, err := reply[StatResp](c.call(StatReq{Name: name}))
	return r.Meta, err
}

// SeqRead returns the next block's payload at this client's cursor; eof is
// true at end of file.
func (c *Client) SeqRead(name string) (data []byte, eof bool, err error) {
	r, err := reply[SeqReadResp](c.call(SeqReadReq{Name: name, OpID: c.opID()}))
	return r.Data, r.EOF, err
}

// SeqReadN returns up to max blocks at this client's cursor in one call —
// the batched naive read, served by the server with one scatter-gather
// across the constituent nodes (and its read-ahead cache, when enabled).
// eof is true once the cursor has reached end of file.
func (c *Client) SeqReadN(name string, max int) (blocks [][]byte, eof bool, err error) {
	r, err := reply[SeqReadNResp](c.call(SeqReadNReq{Name: name, Max: max, OpID: c.opID()}))
	return r.Blocks, r.EOF, err
}

// SeqWrite appends one block (payload up to PayloadBytes).
func (c *Client) SeqWrite(name string, payload []byte) error {
	_, err := reply[SeqWriteResp](c.call(SeqWriteReq{Name: name, Data: payload, OpID: c.opID()}))
	return err
}

// ReadAt reads block blockNum (the random-read command).
func (c *Client) ReadAt(name string, blockNum int64) ([]byte, error) {
	r, err := reply[RandReadResp](c.call(RandReadReq{Name: name, BlockNum: blockNum}))
	return r.Data, err
}

// ReadAtN reads up to count consecutive blocks starting at blockNum with
// one request; the server fans the range out across its nodes.
func (c *Client) ReadAtN(name string, blockNum int64, count int) ([][]byte, error) {
	r, err := reply[RandReadNResp](c.call(RandReadNReq{Name: name, BlockNum: blockNum, Count: count}))
	return r.Blocks, err
}

// WriteAt writes block blockNum; blockNum equal to the file size appends.
func (c *Client) WriteAt(name string, blockNum int64, payload []byte) error {
	_, err := reply[RandWriteResp](c.call(RandWriteReq{Name: name, BlockNum: blockNum, Data: payload, OpID: c.opID()}))
	return err
}

// WriteAtN writes the payloads as consecutive blocks starting at blockNum
// (-1 appends); the run may overwrite the tail and extend past it. It
// returns how many blocks from the front of the run landed — on partial
// failure the file covers exactly that contiguous prefix, so retrying the
// remainder is safe.
func (c *Client) WriteAtN(name string, blockNum int64, payloads [][]byte) (int, error) {
	r, err := reply[RandWriteNResp](c.call(RandWriteNReq{Name: name, BlockNum: blockNum, Blocks: payloads, OpID: c.opID()}))
	return r.Written, err
}

// ScatterResults holds one outcome per item of a Scatter. It is nil when
// every item was a write that landed.
type ScatterResults []ScatterResult

// At returns item i's payload (reads) and error.
func (rs ScatterResults) At(i int) ([]byte, error) {
	if rs == nil {
		return nil, nil
	}
	return rs[i].Data, statusErr(rs[i].Status)
}

// Scatter runs single-block reads and positional writes on several files
// in one server round trip, the server starting every item's storage-node
// call before it waits for any. Each item has its own outcome; the error
// return means the request as a whole did not run. Reads are independent;
// the writes of one request are admitted together (see ScatterReq), and a
// write that was admitted but failed leaves its file's size covering
// exactly what landed. Items whose names live on different directory shards
// travel as one request per shard, one after another in shard order, each
// admitting its own writes.
func (c *Client) Scatter(items []ScatterItem) (ScatterResults, error) {
	if len(items) == 0 {
		return nil, nil
	}
	shard, split := c.shardFor(items[0].Name), false
	for i := range items[1:] {
		split = split || c.shardFor(items[i+1].Name) != shard
	}
	if !split {
		return c.scatterShard(items)
	}
	out := make(ScatterResults, len(items))
	var sub []ScatterItem
	var at []int
	for g := range c.groups {
		sub, at = sub[:0], at[:0]
		for i := range items {
			if c.shardFor(items[i].Name) == g {
				sub, at = append(sub, items[i]), append(at, i)
			}
		}
		if len(sub) == 0 {
			continue
		}
		res, err := c.scatterShard(sub)
		if err != nil {
			return nil, err
		}
		for k, i := range at {
			if res != nil {
				out[i] = res[k]
			}
		}
	}
	return out, nil
}

// scatterShard sends items, all of one shard, as one ScatterReq. A request
// with writes takes an operation id for itself and one for each item.
func (c *Client) scatterShard(items []ScatterItem) (ScatterResults, error) {
	req := ScatterReq{Items: items}
	for i := range items {
		if items[i].Write {
			req.OpID = c.opID()
			c.nextOp += uint64(len(items))
			break
		}
	}
	r, err := reply[ScatterResp](c.call(req))
	return r.Results, err
}

// AppendN appends the payloads as consecutive blocks in one call.
func (c *Client) AppendN(name string, payloads [][]byte) (int, error) {
	return c.WriteAtN(name, -1, payloads)
}

// List returns every file name in the Bridge directory, sorted; with a
// distributed server collection it aggregates all partitions.
func (c *Client) List() ([]string, error) {
	var all []string
	for _, srv := range c.targets() {
		r, err := reply[ListResp](c.callAt(srv, ListReq{}))
		if err != nil {
			return nil, err
		}
		all = append(all, r.Names...)
	}
	sort.Strings(all)
	return all, nil
}

// Health returns the cluster's view of every storage node, aggregated
// across all servers: each server runs its own monitor, so for a node they
// disagree on, the worst reported state wins (a server that cannot reach
// the node knows something the others don't). Without health monitors
// configured every node reports Healthy.
func (c *Client) Health() ([]NodeHealth, error) {
	var out []NodeHealth
	idx := make(map[msg.NodeID]int)
	for _, srv := range c.targets() {
		r, err := reply[HealthResp](c.callAt(srv, HealthReq{}))
		if err != nil {
			return nil, err
		}
		for _, st := range r.States {
			i, seen := idx[st.Node]
			if !seen {
				idx[st.Node] = len(out)
				out = append(out, st)
				continue
			}
			if st.State > out[i].State {
				out[i].State = st.State
			}
		}
	}
	return out, nil
}

// RepairNode re-registers every Bridge file's LFS file on restarted
// storage node index i, across all servers, returning the total number of
// files repaired. Run it after Cluster.RestartNode and before replica
// resilvering.
func (c *Client) RepairNode(i int) (int, error) {
	total := 0
	for _, srv := range c.targets() {
		r, err := reply[RepairNodeResp](c.callAt(srv, RepairNodeReq{Node: i, OpID: c.opID()}))
		total += r.Files
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Fsck runs the LFS-level consistency checker on storage node index i. The
// request routes to the first server (any server can reach any node).
func (c *Client) Fsck(i int) (efs.CheckReport, error) {
	r, err := reply[FsckResp](c.callAt(c.first(), FsckReq{Node: i}))
	return r.Report, err
}

// FsckRepair runs the checker with bitmap repair on storage node index i,
// returning the post-repair report and the number of bitmap corrections.
func (c *Client) FsckRepair(i int) (efs.CheckReport, int, error) {
	r, err := reply[FsckResp](c.callAt(c.first(), FsckReq{Node: i, Repair: true, OpID: c.opID()}))
	return r.Report, r.Fixes, err
}

// Recovery fetches storage node index i's boot recovery report: journal
// replay stats plus the fsck that verified the remounted volume. It fails
// with ErrNotFound when the node was freshly formatted or is not journaled.
func (c *Client) Recovery(i int) (lfs.RecoveryReport, error) {
	r, err := reply[RecoveryResp](c.callAt(c.first(), RecoveryReq{Node: i}))
	return r.Report, err
}

// Scrub runs a full checksum-verification sweep on storage node index i.
func (c *Client) Scrub(i int) (efs.ScrubReport, error) {
	r, err := reply[ScrubResp](c.callAt(c.first(), ScrubReq{Node: i}))
	return r.Report, err
}

// GetInfo returns the cluster structure: the entry point for tools.
func (c *Client) GetInfo() (Info, error) {
	r, err := reply[GetInfoResp](c.call(GetInfoReq{}))
	return r.Info, err
}

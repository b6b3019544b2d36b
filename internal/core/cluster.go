package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"bridge/internal/disk"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/raft"
	"bridge/internal/sim"
)

// ClusterConfig assembles a whole Bridge system: p storage nodes (each a
// processor + disk + LFS + agent, Figure 2 of the paper) and the Bridge
// Server on its own node.
type ClusterConfig struct {
	// P is the number of storage nodes. Default 4.
	P int
	// Node configures each storage node.
	Node lfs.Config
	// Net is the communication cost model; nil means msg.DefaultConfig.
	Net *msg.Config
	// Server configures the Bridge Server(s).
	Server Config
	// Servers is how many directory shard groups to run (default 1). The
	// file namespace partitions among the groups by name hash — the
	// distributed-server variant the paper sketches for when "requests to
	// the server are frequent enough to cause a bottleneck". Composes
	// with Replicas: the topology is Servers shard groups × Replicas
	// members each.
	Servers int
	// Disks, if non-nil, supplies existing disks, one per node, each
	// mounted rather than formatted: tests remount one cluster's volumes
	// under another.
	Disks []*disk.Disk
	// Replicas is the size of each shard group; 0 and 1 both mean a group
	// of one. Above 1 each group is a Raft-replicated set of that many
	// Bridge Servers running its own independent consensus over its own
	// hash partition of the namespace, every member on its own processor
	// node (P+1 onward, group-major order) so partitions and crashes hit
	// members independently. A replicated group rejects Server.Health and
	// Server.ReadAhead (DESIGN.md, feature × group-size).
	Replicas int
	// RaftSeed seeds the members' jittered election timeouts (derived
	// per member). Default 1.
	RaftSeed int64
	// RaftDir, when non-empty, backs each member's consensus state with
	// a durable file-backed disk (<RaftDir>/raft<i>.disk) so a killed
	// member recovers its log on restart, and <RaftDir>/raft.starts counts
	// the clusters started on it (countStart). Empty keeps the log in memory
	// (still survives Crash/Restart within one simulation, since the
	// store object is reused).
	RaftDir string
}

// Cluster is a running Bridge system.
type Cluster struct {
	Net *msg.Network
	// Servers lists every Bridge Server, flat in group-major order:
	// member j of shard group g at index g*GroupSize()+j.
	Servers []*Server
	Nodes   []*lfs.Node

	rt        sim.Runtime
	groupSize int    // members per shard group
	start     uint64 // clusters started on RaftDir before this one
	boots     []serverBoot
	raftDisks []*disk.Disk
}

// serverBoot is what (re)starts one server: RestartServer boots a crashed
// member from the same configuration and consensus store.
type serverBoot struct {
	cfg  Config
	spec *memberSpec
}

// StartCluster boots the node and server processes on rt: storage nodes
// are 1..P, and Servers × max(Replicas,1) Bridge Servers in group-major
// order. Groups of one all run on node 0 (the paper's diskless server
// node), told apart by port; the members of a replicated group each get a
// processor node of their own past the storage nodes and share one port
// name.
func StartCluster(rt sim.Runtime, cfg ClusterConfig) (*Cluster, error) {
	if cfg.P == 0 {
		cfg.P = 4
	}
	if cfg.P < 1 {
		return nil, fmt.Errorf("%w: P = %d", ErrBadArg, cfg.P)
	}
	if cfg.Disks != nil && len(cfg.Disks) != cfg.P {
		return nil, fmt.Errorf("%w: %d disks for %d nodes", ErrBadArg, len(cfg.Disks), cfg.P)
	}
	if cfg.Servers == 0 {
		cfg.Servers = 1
	}
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("%w: Servers = %d", ErrBadArg, cfg.Servers)
	}
	if err := CheckGroup(cfg.Replicas, cfg.Server.Health != nil, cfg.Server.ReadAhead); err != nil {
		return nil, err
	}
	netCfg := msg.DefaultConfig()
	if cfg.Net != nil {
		netCfg = *cfg.Net
	}
	network := msg.NewNetwork(rt, netCfg)
	cl := &Cluster{Net: network, rt: rt, groupSize: 1}
	if cfg.Replicas > 1 {
		cl.groupSize = cfg.Replicas
	}
	for i := 0; i < cfg.P; i++ {
		id := msg.NodeID(i + 1)
		var existing *disk.Disk
		if cfg.Disks != nil {
			existing = cfg.Disks[i]
		}
		node, err := lfs.StartNode(rt, network, id, cfg.Node, existing)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.Nodes = append(cl.Nodes, node)
	}
	if cfg.RaftSeed == 0 {
		cfg.RaftSeed = 1
	}
	port := cfg.Server.PortName
	if port == "" {
		port = PortName
	}
	size := cl.groupSize
	if size > 1 && cfg.RaftDir != "" {
		var err error
		if cl.start, err = countStart(cfg.RaftDir); err != nil {
			cl.Close()
			return nil, fmt.Errorf("core: count cluster starts: %w", err)
		}
	}
	for g := 0; g < cfg.Servers; g++ {
		peers := make([]msg.Addr, size)
		for j := range peers {
			peers[j] = msg.Addr{Node: msg.NodeID(cfg.P + 1 + g*size + j), Port: port}
		}
		for j := 0; j < size; j++ {
			boot := serverBoot{cfg: cfg.Server}
			boot.cfg.IDBase = uint32(g)
			boot.cfg.IDStride = uint32(cfg.Servers)
			if size == 1 {
				boot.cfg.Node = 0
				if g > 0 {
					boot.cfg.PortName = fmt.Sprintf("%s.%d", PortName, g)
				}
			} else {
				flat := g*size + j
				store, d, err := openRaftStore(cfg.RaftDir, flat)
				if err != nil {
					cl.Close()
					return nil, err
				}
				cl.raftDisks = append(cl.raftDisks, d)
				boot.cfg.Node = peers[j].Node
				boot.spec = &memberSpec{
					id:    j,
					shard: g,
					peers: peers,
					seed:  DeriveSeed(cfg.RaftSeed, fmt.Sprintf("raft.replica.%d", flat)),
					store: store,
				}
			}
			cl.boots = append(cl.boots, boot)
		}
	}
	// Every consensus store opens before any server boots, so a bad
	// RaftDir fails the start before a server process exists.
	for _, boot := range cl.boots {
		cl.Servers = append(cl.Servers, startServer(rt, network, boot.cfg, cl.NodeIDs(), boot.spec))
	}
	return cl, nil
}

// CheckGroup validates a directory group size against the features a
// replicated group cannot offer: Replicas > 1 together with a health
// monitor (its probe state is unreplicated and would diverge across
// members) or read-ahead (its buffers would serve reads that bypass the
// leader-lease check) is rejected with ErrBadArg rather than silently
// switched off. 0 and 1 both mean a group of one.
func CheckGroup(replicas int, health bool, readAhead int) error {
	switch {
	case replicas < 0:
		return fmt.Errorf("%w: Replicas = %d", ErrBadArg, replicas)
	case replicas > 1 && health:
		return fmt.Errorf("%w: Health is unsupported with Replicas = %d: heartbeat state is not replicated", ErrBadArg, replicas)
	case replicas > 1 && readAhead > 0:
		return fmt.Errorf("%w: ReadAhead is unsupported with Replicas = %d: its buffers would bypass the leader lease", ErrBadArg, replicas)
	}
	return nil
}

// openRaftStore opens member flat's consensus store: a file-backed disk
// under dir (raft<flat>.disk), or memory when dir is empty (d is nil).
func openRaftStore(dir string, flat int) (store raft.Store, d *disk.Disk, err error) {
	if dir == "" {
		return &raft.MemStore{}, nil, nil
	}
	dcfg := disk.Config{
		BlockSize: 1024,
		NumBlocks: 1024,
		Timing:    disk.FixedTiming{Latency: 500 * time.Microsecond},
		WriteBack: true,
		SyncTime:  time.Millisecond,
	}
	st, err := disk.OpenFileStore(filepath.Join(dir, fmt.Sprintf("raft%d.disk", flat)), 1024, 1024)
	if err != nil {
		return nil, nil, fmt.Errorf("core: open raft disk %d: %w", flat, err)
	}
	if d, err = disk.NewWithStore(dcfg, st); err == nil {
		if store, err = raft.NewDiskStore(d); err == nil {
			return store, d, nil
		}
	}
	if cerr := st.Close(); cerr != nil {
		return nil, nil, fmt.Errorf("core: raft disk %d: %w (and closing store: %v)", flat, err, cerr)
	}
	return nil, nil, fmt.Errorf("core: raft disk %d: %w", flat, err)
}

// countStart returns how many clusters started on dir's replicated state
// before this one, and counts this one: each start's clients draw op ids
// above every earlier start's, whose op tables that state keeps (opBase).
func countStart(dir string) (n uint64, err error) {
	path := filepath.Join(dir, "raft.starts")
	b, err := os.ReadFile(path)
	if err == nil {
		n, err = strconv.ParseUint(string(b), 10, 64)
	} else if os.IsNotExist(err) {
		err = nil
	}
	if err == nil {
		err = os.WriteFile(path, strconv.AppendUint(nil, n+1, 10), 0o644)
	}
	return n, err
}

// NumShards returns the number of directory shard groups.
func (cl *Cluster) NumShards() int { return len(cl.Servers) / cl.groupSize }

// GroupSize returns the number of members per shard group (1 for an
// unreplicated directory).
func (cl *Cluster) GroupSize() int { return cl.groupSize }

// ShardGroups returns the topology as the client consumes it: one address
// list per shard group, members in order.
func (cl *Cluster) ShardGroups() [][]msg.Addr {
	out := make([][]msg.Addr, cl.NumShards())
	for i, s := range cl.Servers {
		out[i/cl.groupSize] = append(out[i/cl.groupSize], s.Addr())
	}
	return out
}

// ServerAddrs returns every Bridge Server's request address.
func (cl *Cluster) ServerAddrs() []msg.Addr {
	addrs := make([]msg.Addr, len(cl.Servers))
	for i, s := range cl.Servers {
		addrs[i] = s.Addr()
	}
	return addrs
}

// RaftDisks returns each member's consensus disk, nil entries where the
// log is memory-backed (no RaftDir) — and an empty slice for groups of
// one. The facade attaches the fault injector's crash model
// to them so kill-9 semantics govern the consensus state too.
func (cl *Cluster) RaftDisks() []*disk.Disk { return cl.raftDisks }

// NodeIDs returns the storage node ids in interleaving order.
func (cl *Cluster) NodeIDs() []msg.NodeID {
	ids := make([]msg.NodeID, len(cl.Nodes))
	for i, n := range cl.Nodes {
		ids[i] = n.ID
	}
	return ids
}

// Runtime returns the runtime the cluster runs on.
func (cl *Cluster) Runtime() sim.Runtime { return cl.rt }

// NewClient creates a Bridge client for proc homed on the given node,
// wired to every server in the cluster.
func (cl *Cluster) NewClient(proc sim.Proc, node msg.NodeID, name string) *Client {
	if cl.groupSize > 1 {
		c := NewReplicatedClient(proc, cl.Net, node, name, cl.ShardGroups())
		c.nextOp = opBase(cl.start, c.mc.Incarnation())
		return c
	}
	return NewMultiClient(proc, cl.Net, node, name, cl.ServerAddrs())
}

// SyncAll flushes every live storage node's volume: a journal commit plus
// a disk barrier, the same durability point an acknowledged client Sync
// reaches. The facade calls it on clean shutdown so stopping a cluster
// never loses writes that group commit was still holding. Nodes whose
// disks have failed are skipped — their write cache is already gone and
// remount recovery owns them. It returns the first sync error; a node
// that cannot ack is equivalent to one that crashed at shutdown, which
// recovery already handles, so callers may treat the error as advisory.
func (cl *Cluster) SyncAll(p sim.Proc) error {
	lc := &lfs.Client{C: msg.NewClient(p, cl.Net, 0, "core.syncall"), Policy: lfs.Policy{Timeout: 10 * time.Second}}
	defer lc.C.Close()
	var firstErr error
	for _, n := range cl.Nodes {
		if n.Disk.Failed() {
			continue
		}
		if err := lc.Sync(n.ID); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: sync node %d: %w", n.ID, err)
		}
	}
	return firstErr
}

// Close releases the durable stores of every node and consensus disk (the
// DiskDir and RaftDir files). Call it once the runtime has drained, not
// from Stop: servers may still write while their processes wind down.
func (cl *Cluster) Close() error {
	var errs []error
	for _, n := range cl.Nodes {
		errs = append(errs, closeStore(n.Disk))
	}
	for _, d := range cl.raftDisks {
		errs = append(errs, closeStore(d))
	}
	return errors.Join(errs...)
}

// Faults joins why each directory member that halted itself did so (a
// consensus store it could not read, a committed entry it could not
// apply), each named by its shard and index; nil when none did.
func (cl *Cluster) Faults() error {
	var errs []error
	for flat, s := range cl.Servers {
		if err := s.Fault(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d member %d: %w", flat/cl.groupSize, flat%cl.groupSize, err))
		}
	}
	return errors.Join(errs...)
}

// closeStore closes d's durable store; a nil or memory-backed d has none.
func closeStore(d *disk.Disk) error {
	if d == nil || d.Store() == nil {
		return nil
	}
	return d.Store().Close()
}

// Stop shuts down the servers and every node so all processes exit.
func (cl *Cluster) Stop() {
	for _, s := range cl.Servers {
		s.Stop()
	}
	for _, n := range cl.Nodes {
		n.Stop()
	}
}

// CrashServer kills member i of shard group shard with kill-9 semantics
// at virtual time now: its port closes, volatile state (write-behind
// buffers, parked requests) is gone, and the consensus disk drops
// unsynced writes. Only members of a replicated group can be crashed and
// restarted — a group of one's directory is its only copy. The signature
// matches fault.ServerController.
func (cl *Cluster) CrashServer(shard, i int, now time.Duration) {
	flat := shard*cl.groupSize + i
	cl.Servers[flat].Stop()
	if d := cl.raftDisks[flat]; d != nil {
		d.Crash(now)
	}
}

// RestartServer boots a fresh process for crashed member i of shard
// group shard: the consensus disk comes back with its surviving blocks
// and the member reloads its term, log, and snapshot from it, rebuilding
// the shard's directory by replay.
func (cl *Cluster) RestartServer(shard, i int) {
	flat := shard*cl.groupSize + i
	if d := cl.raftDisks[flat]; d != nil {
		d.Restore()
	}
	boot := cl.boots[flat]
	cl.Servers[flat] = startServer(cl.rt, cl.Net, boot.cfg, cl.NodeIDs(), boot.spec)
}

// LeaderServer returns the index within shard group shard of the member
// whose directory is currently authoritative (ready to serve), or -1 when
// the group has none. The signature matches fault.ServerController.
func (cl *Cluster) LeaderServer(shard int) int {
	for j := 0; j < cl.groupSize; j++ {
		if cl.Servers[shard*cl.groupSize+j].IsLeader() {
			return j
		}
	}
	return -1
}

// FailNode simulates the crash of storage node index i (0-based).
func (cl *Cluster) FailNode(i int) {
	cl.Nodes[i].Fail()
}

// RestartNode power-cycles failed storage node i: the disk comes back with
// its surviving blocks and the LFS boots by mounting the volume. The
// signature matches fault.NodeController, so a fault schedule can drive
// crashes and restarts directly against the cluster.
func (cl *Cluster) RestartNode(i int) {
	cl.Nodes[i].Restart(cl.rt)
}

// CrashNode power-fails storage node i (0-based) at virtual time now with
// kill-9 semantics: the disk's unsynced writes are dropped (subject to the
// installed crash hook) before the ports close. The signature matches
// fault.CrashController, so a fault schedule's Kill events land here.
func (cl *Cluster) CrashNode(i int, now time.Duration) {
	cl.Nodes[i].Crash(now)
}

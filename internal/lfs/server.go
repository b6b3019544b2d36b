package lfs

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/sim"
)

// Config parameterizes one storage node.
type Config struct {
	// DiskBlocks is the device capacity. Default 8192 (8 MB per node).
	DiskBlocks int
	// Timing is the disk timing model. Default FixedTiming{15ms}.
	Timing disk.TimingModel
	// EFS configures the local file system. Setting EFS.JournalBlocks
	// turns on the write-ahead intent journal and with it the disk's
	// volatile write cache, so crashes exercise real kill-9 semantics.
	EFS efs.Options
	// DiskDir, when non-empty, backs the node's disk with a durable
	// disk.FileStore (StorePath: <DiskDir>/node<ID>.disk): committed blocks
	// survive the process, and StartNode mounts instead of formatting when
	// the store already holds a volume, walking it only if the store was
	// not clean at open (RecoveryReport.CleanAtOpen).
	DiskDir string
	// OpCPU is the processor time the LFS charges per request on top of
	// device time (request decode, cache lookup bookkeeping). Default
	// DefaultOpCPU.
	OpCPU time.Duration
	// Scrub enables the background integrity scrubber on this node (nil =
	// off). Between requests the server sweeps the volume incrementally,
	// verifying block checksums against the medium.
	Scrub *ScrubConfig
}

// ScrubConfig parameterizes the background scrubber. The scrubber runs in
// the server process itself: whenever the server has been idle for Interval,
// it spends up to Budget of disk time verifying the next blocks in the
// sweep. Requests always take priority — a scrub increment only starts when
// the queue is empty, so an idle node scrubs continuously and a busy node
// scrubs between bursts.
type ScrubConfig struct {
	// Interval is how long the server must be idle before an increment
	// runs. Default 500ms.
	Interval time.Duration
	// Budget bounds the disk time one increment may spend. Default 60ms
	// (about four Wren-class accesses).
	Budget time.Duration
}

func (c *ScrubConfig) applyDefaults() {
	if c.Interval == 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Budget == 0 {
		c.Budget = 60 * time.Millisecond
	}
}

// DefaultOpCPU is the LFS's per-request processor charge.
const DefaultOpCPU = 300 * time.Microsecond

func (c *Config) applyDefaults() {
	if c.DiskBlocks == 0 {
		c.DiskBlocks = 8192
	}
	if c.Timing == nil {
		c.Timing = disk.FixedTiming{Latency: disk.DefaultLatency}
	}
	if c.OpCPU == 0 {
		c.OpCPU = DefaultOpCPU
	}
	if c.Scrub != nil {
		c.Scrub.applyDefaults()
	}
}

// Node is one storage node: a disk, an EFS volume, an LFS server process,
// and an agent process.
type Node struct {
	ID    msg.NodeID
	Disk  *disk.Disk
	cfg   Config
	net   *msg.Network
	port  *msg.Port
	agent *agent

	// fs is owned by the server process after boot.
	fs *efs.FS

	// recovery is the report of the most recent journaled mount: replay
	// stats plus the fsck of a walked volume. Nil until such a mount
	// completes; served unchanged by RecoveryReq afterwards.
	recovery *RecoveryReport

	// Write dedup state, owned by the server process; reset on restart
	// (in-memory state does not survive a crash). Values are WriteResp or
	// WriteVecResp.
	dedup  map[writeKey]any
	dedupQ []writeKey

	// runHeads and runDatas are appendRunVec's scratch, owned by the
	// server process like fs; emptied after each run so the node pins no
	// payload between requests.
	runHeads, runDatas [][]byte

	sm scrubMetrics
}

// scrubMetrics are the node's typed scrubber counters; all nodes share the
// network registry, so the counters aggregate across the cluster exactly as
// the stringly versions did.
type scrubMetrics struct {
	blocks, errors, sweeps obs.Counter
}

// writeKey identifies one write operation for retransmission dedup.
type writeKey struct {
	from msg.Addr
	op   uint64
}

// writeDedupCap bounds the write-reply cache (FIFO eviction).
const writeDedupCap = 1024

// StartNode boots a storage node on the runtime: it formats (or mounts) the
// disk and starts the LFS server and agent processes. If existing is
// non-nil, that disk is mounted instead of formatting a new one; with
// cfg.DiskDir set, a durable file-backed store is opened (and mounted when
// it already holds a volume). A device whose format never finished is
// formatted again (see boot). Only the file-backed path can fail.
func StartNode(rt sim.Runtime, net *msg.Network, id msg.NodeID, cfg Config, existing *disk.Disk) (*Node, error) {
	cfg.applyDefaults()
	reg := net.Stats().Registry()
	if cfg.EFS.Metrics == nil {
		cfg.EFS.Metrics = reg
	}
	d := existing
	mount, cleanAtOpen := existing != nil, false
	if d == nil {
		dcfg := disk.Config{
			NumBlocks: cfg.DiskBlocks,
			Timing:    cfg.Timing,
			// A journaled volume needs the volatile write cache: without
			// it every write is instantly durable and a crash can never
			// tear or lose anything, which defeats the model under test.
			WriteBack: cfg.EFS.JournalBlocks > 0,
		}
		if cfg.DiskDir != "" {
			st, err := disk.OpenFileStore(StorePath(cfg.DiskDir, id), efs.BlockSize, cfg.DiskBlocks)
			if err != nil {
				return nil, fmt.Errorf("lfs: node %d: %w", id, err)
			}
			if d, err = disk.NewWithStore(dcfg, st); err != nil {
				if cerr := st.Close(); cerr != nil {
					return nil, fmt.Errorf("lfs: node %d: %w (and closing store: %v)", id, err, cerr)
				}
				return nil, fmt.Errorf("lfs: node %d: %w", id, err)
			}
			// A store that already holds blocks is a prior life of this
			// node: mount what it left behind instead of formatting.
			mount, cleanAtOpen = !d.Blank(), st.CleanAtOpen()
		} else {
			d = disk.New(dcfg)
		}
	}
	n := &Node{
		ID:   id,
		Disk: d,
		cfg:  cfg,
		net:  net,
		port: net.NewPort(msg.Addr{Node: id, Port: PortName}),
		sm: scrubMetrics{
			blocks: reg.Counter("bridge.scrub_blocks", "blocks", "blocks verified by the background scrubber"),
			errors: reg.Counter("bridge.scrub_errors", "blocks", "checksum failures found by the scrubber"),
			sweeps: reg.Counter("bridge.scrub_sweeps", "sweeps", "full scrub cursor wraps completed"),
		},
	}
	n.agent = startAgent(rt, net, id)
	rt.Go(n.port.Addr().String(), func(p sim.Proc) {
		n.serve(p, mount, cleanAtOpen)
	})
	return n, nil
}

// StorePath is the durable store of node id's disk under a DiskDir.
func StorePath(dir string, id msg.NodeID) string {
	return filepath.Join(dir, fmt.Sprintf("node%d.disk", id))
}

// Addr returns the LFS server address.
func (n *Node) Addr() msg.Addr { return n.port.Addr() }

// AgentAddr returns the node agent address.
func (n *Node) AgentAddr() msg.Addr { return msg.Addr{Node: n.ID, Port: AgentPortName} }

// FS exposes the EFS volume for tests and measurements; do not call it
// concurrently with a running simulation.
func (n *Node) FS() *efs.FS { return n.fs }

// Fail simulates a node crash: the disk fails and both service ports close,
// so in-flight and future messages to the node are lost.
func (n *Node) Fail() {
	n.Disk.Fail()
	n.port.Close()
	n.agent.port.Close()
}

// Crash simulates a kill-9 power loss at the given virtual time: the disk's
// volatile write cache is dropped (subject to the crash hook's keep/torn
// decision), the stable prefix is committed, and both service ports close.
// Restart then remounts whatever survived, exactly like Fail.
func (n *Node) Crash(now time.Duration) {
	n.Disk.Crash(now)
	n.port.Close()
	n.agent.port.Close()
}

// Restart power-cycles a failed node: the disk comes back with its
// surviving blocks and the services restart by mounting and walking the
// volume. The mounted metadata is whatever the node last synced — files
// registered after that sync are gone here even though their data blocks
// survive; core's RepairNode plus replica-layer repair restore them.
func (n *Node) Restart(rt sim.Runtime) {
	n.Disk.Restore()
	n.port = n.net.NewPort(msg.Addr{Node: n.ID, Port: PortName})
	n.agent = startAgent(rt, n.net, n.ID)
	rt.Go(n.port.Addr().String(), func(p sim.Proc) {
		n.serve(p, true, false)
	})
}

// Stop closes the node's ports so its processes exit at the next receive.
func (n *Node) Stop() {
	n.port.Close()
	n.agent.port.Close()
}

// QueueLen returns the LFS request queue depth, sampled by the
// observability gauge sampler.
func (n *Node) QueueLen() int { return n.port.QueueLen() }

func (n *Node) serve(p sim.Proc, mount, cleanAtOpen bool) {
	bootStart := p.Now()
	// A mount that walks holds the store dirty until a walk passes, so a
	// volume whose walk found problems, or was cut short, is walked again
	// at the next open even though the replay's barrier syncs the store.
	n.Disk.HoldDirty(mount && !cleanAtOpen)
	mounted, err := n.boot(p, mount)
	if err != nil {
		// A boot the disk failed under is a crash: the node stays silent.
		if !n.Disk.Failed() {
			n.refuse(p, err)
		}
		n.port.Close()
		return
	}
	if mounted && n.fs.Journaled() {
		n.recoverVolume(p, bootStart, cleanAtOpen)
	} else {
		n.Disk.HoldDirty(false) // nothing walks a fresh or unjournaled volume
	}
	n.dedup = make(map[writeKey]any)
	n.dedupQ = nil
	for {
		var req *msg.Message
		var ok bool
		if n.cfg.Scrub != nil {
			// With the scrubber on, idle time is scrub time: when no
			// request arrives within the interval, run one budgeted sweep
			// increment and go back to listening. The FS stays owned by
			// this one process either way.
			var timedOut bool
			req, ok, timedOut = n.port.RecvTimeout(p, n.cfg.Scrub.Interval)
			if timedOut {
				// A failed increment (directory chains unreadable) sweeps
				// nothing; every client operation sees and reports it.
				n.scrub(p, msg.Addr{}, ScrubReq{})
				continue
			}
		} else {
			req, ok = n.port.Recv(p)
		}
		if !ok {
			return
		}
		if n.Disk.Failed() {
			// The node crashed while this request sat in the queue. A dead
			// node must not answer from beyond the grave — especially not
			// with a recovery report whose fsck the crash itself garbled.
			return
		}
		c := nodeCommands.Of(req.Body)
		var sp obs.SpanRef
		rec := n.net.Recorder()
		if rec != nil {
			at := p.Now()
			sp = rec.Start(at, req.Trace, req.Span, "lfs."+c.Name, int(n.ID))
			sp.SetQueueWait(n.net.QueueWait(at, req))
			// Device accesses during this request belong to its trace.
			n.Disk.SetTrace(req.Trace, sp.ID())
		}
		if n.cfg.OpCPU > 0 {
			p.Sleep(n.cfg.OpCPU)
		}
		body := c.Serve(n, p, req.From, req.Body)
		if rec != nil {
			n.Disk.SetTrace(0, 0)
		}
		errText := ""
		if st, _ := msg.StatusOf(body); !st.OK() {
			errText = Err(st).Error()
		}
		if n.port.Closed() {
			// The node crashed, failed or stopped while it served this
			// request: a dead node answers nothing, least of all with the
			// errors of the device that died under it. A device that failed
			// under a live node (Disk.Fail alone) still answers with them.
			sp.EndErr(p.Now(), errText)
			return
		}
		// Replies to dead clients drop silently.
		_ = n.net.Send(p, n.ID, req.From, &msg.Message{
			From:  n.port.Addr(),
			ReqID: req.ReqID,
			Body:  body,
			Size:  c.Size(body),
			Trace: req.Trace,
			Span:  req.Span,
		})
		sp.EndErr(p.Now(), errText)
	}
}

// boot mounts the node's volume, or formats it when mount is false or the
// device holds no complete volume (efs.ErrUnformatted: a format that a crash
// cut short is redone, not left to fail every boot). mounted reports whether
// an existing volume came up.
func (n *Node) boot(p sim.Proc, mount bool) (mounted bool, err error) {
	if mount {
		n.fs, err = efs.Mount(p, n.Disk, n.cfg.EFS)
		if !errors.Is(err, efs.ErrUnformatted) {
			return err == nil, err
		}
	}
	n.fs, err = efs.Format(p, n.Disk, n.cfg.EFS)
	return false, err
}

// refuse serves a node whose volume did not boot: every request is answered
// with the boot error as a typed status until the port closes, so callers
// learn why instead of timing out. Once the node crashes it answers nothing.
func (n *Node) refuse(p sim.Proc, bootErr error) {
	st := StatusFor(fmt.Errorf("lfs: node %d cannot boot its volume: %w", n.ID, bootErr))
	for {
		req, ok := n.port.Recv(p)
		if !ok || n.Disk.Failed() {
			return
		}
		_ = n.net.Send(p, n.ID, req.From, &msg.Message{
			From:  n.port.Addr(),
			ReqID: req.ReqID,
			Body:  st,
			Size:  WireSize(st),
			Trace: req.Trace,
			Span:  req.Span,
		})
	}
}

// recoverVolume finishes a journaled mount. The journal replay itself
// already ran inside efs.Mount; unless the store was clean at open, this
// runs the fsck verifier over the result and lets the store be marked
// clean again only if the walk passed. It builds the node's
// RecoveryReport and records the whole boot as its own trace (lfs.mount
// with lfs.replay and lfs.fsck children — the replay span is retroactive,
// stamped from the replay's own clock).
func (n *Node) recoverVolume(p sim.Proc, bootStart time.Duration, cleanAtOpen bool) {
	rep := RecoveryReport{Journaled: true, CleanAtOpen: cleanAtOpen}
	if st := n.fs.LastReplay(); st != nil {
		rep.Replay = *st
	}
	rec := n.net.Recorder()
	var root, fsp obs.SpanRef
	if rec != nil {
		tr := rec.NewTrace()
		root = rec.Start(bootStart, tr, 0, "lfs.mount", int(n.ID))
		rsp := rec.Start(rep.Replay.Started, tr, root.ID(), "lfs.replay", int(n.ID))
		rsp.EndErr(rep.Replay.Ended, "")
		if !cleanAtOpen {
			fsp = rec.Start(p.Now(), tr, root.ID(), "lfs.fsck", int(n.ID))
		}
	}
	errText := ""
	if !cleanAtOpen {
		check, err := n.fs.Check(p)
		rep.Fsck = check
		if err != nil {
			rep.FsckErr = err.Error()
		}
		errText = rep.FsckErr
		if errText == "" && !check.OK() {
			errText = fmt.Sprintf("fsck: %d problems", len(check.Problems))
		}
		fsp.EndErr(p.Now(), errText)
		n.Disk.HoldDirty(errText != "")
	}
	root.EndErr(p.Now(), errText)
	n.recovery = &rep
}

// appendRunVec serves a WriteVecReq whose blocks form one consecutive
// append run through efs.AppendRun: the whole run is allocated in one
// scatter round and every block is written once with its links already in
// place, instead of the two device accesses per block the per-block loop
// pays. ran is false when the vector is not such a run (not consecutive, or
// not starting at the file's size) and the caller should fall back to the
// per-block path. The run is all-or-nothing: on failure every block reports
// the same error and the file is unchanged, which the Bridge Server's
// contiguous-prefix accounting handles as a zero-length prefix.
func (n *Node) appendRunVec(p sim.Proc, r WriteVecReq) (resp WriteVecResp, ran bool) {
	if len(r.Blocks) < 2 {
		return WriteVecResp{}, false
	}
	for i, w := range r.Blocks {
		if w.BlockNum != r.Blocks[0].BlockNum+uint32(i) {
			return WriteVecResp{}, false
		}
	}
	var heads [][]byte // stays nil for a tool's raw blocks, which carry none
	datas := growScratch(&n.runDatas, len(r.Blocks))
	for i := range r.Blocks {
		w := &r.Blocks[i]
		if datas[i] = w.Data; w.Head.Len > 0 {
			if heads == nil {
				heads = growScratch(&n.runHeads, len(r.Blocks))
			}
			heads[i] = w.Head.Bytes()
		}
	}
	addrs, err := n.fs.AppendRun(p, r.FileID, r.Blocks[0].BlockNum, heads, datas)
	clear(datas) // EFS keeps neither slice
	clear(heads)
	if errors.Is(err, efs.ErrNotAppend) {
		// The run does not start at the file's append point (an overwrite
		// batch, or a stale size): per-block dispatch decides block by block.
		return WriteVecResp{}, false
	}
	resp = WriteVecResp{Blocks: make([]VecWritten, len(r.Blocks))}
	if err != nil {
		st := StatusFor(err)
		for i := range resp.Blocks {
			resp.Blocks[i] = VecWritten{Addr: -1, Status: st}
		}
		return resp, true
	}
	for i, addr := range addrs {
		resp.Blocks[i] = VecWritten{Addr: addr}
	}
	return resp, true
}

// growScratch returns (*s)[:n], growing *s first if it is shorter. Every
// element is nil: users clear what they set before the next call.
func growScratch(s *[][]byte, n int) [][]byte {
	if cap(*s) < n {
		*s = make([][]byte, n)
	}
	return (*s)[:n]
}

// readVec serves a ReadVecReq, block by block.
func (n *Node) readVec(p sim.Proc, _ msg.Addr, r ReadVecReq) (ReadVecResp, error) {
	resp := ReadVecResp{Blocks: make([]VecRead, len(r.Blocks))}
	hint := r.Hint
	for i, bn := range r.Blocks {
		data, addr, err := n.fs.ReadBlock(p, r.FileID, bn, hint)
		resp.Blocks[i] = VecRead{Data: data, Addr: addr, Status: StatusFor(err)}
		if err == nil {
			// Chain the returned address as the next block's hint:
			// consecutive local blocks usually sit near each other.
			hint = addr
		}
	}
	return resp, nil
}

// writeVec serves a WriteVecReq: as one append run when it is one, else
// block by block with each written address chained as the next hint.
func (n *Node) writeVec(p sim.Proc, _ msg.Addr, r WriteVecReq) (WriteVecResp, error) {
	if resp, ran := n.appendRunVec(p, r); ran {
		return resp, nil
	}
	resp := WriteVecResp{Blocks: make([]VecWritten, len(r.Blocks))}
	hint := r.Hint
	for i := range r.Blocks {
		w := &r.Blocks[i]
		addr, err := n.fs.WriteBlockHead(p, r.FileID, w.BlockNum, w.Head.Bytes(), w.Data, hint)
		resp.Blocks[i] = VecWritten{Addr: addr, Status: StatusFor(err)}
		if err == nil {
			hint = addr
		}
	}
	return resp, nil
}

// scrub serves a ScrubReq: a full sweep, or one budgeted increment, which
// is also what the idle scrubber runs.
func (n *Node) scrub(p sim.Proc, _ msg.Addr, r ScrubReq) (ScrubResp, error) {
	var rep efs.ScrubReport
	var err error
	if r.Full {
		rep, err = n.fs.ScrubAll(p)
	} else {
		budget := time.Duration(0)
		if n.cfg.Scrub != nil {
			budget = n.cfg.Scrub.Budget
		}
		rep, err = n.fs.ScrubStep(p, budget)
	}
	if err == nil {
		n.sm.blocks.Add(int64(rep.Scanned))
		n.sm.errors.Add(int64(len(rep.Errors)))
		if rep.Wrapped {
			n.sm.sweeps.Add(1)
		}
	}
	return ScrubResp{Report: rep}, err
}

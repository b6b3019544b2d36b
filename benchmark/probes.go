package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bridge"
	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/msg/tcpnet"
	"bridge/internal/obs"
	"bridge/internal/raft"
	"bridge/internal/replica"
	"bridge/internal/sim"
)

// Layer probes (source b): each calls one package's exported functions
// directly on a zero-latency set-up, so the number is the host cost of the
// Go code alone. They are informational, never gated; every probe reports
// the p25 of `batches` batches. Per-batch set-up (a fresh volume, a new file)
// runs in the probe's setup hook, outside the timed region. The sim and msg
// probes do start a virtual runtime inside it, because a runtime's life ends
// with the batch's Wait; that is two or three goroutines against thousands
// of round trips.

// idleProc is a sim.Proc for calls that never block: zero-latency disks and
// in-memory stores charge no time, so nothing needs a runtime behind it.
type idleProc struct{}

func (idleProc) Name() string              { return "benchmark-probe" }
func (idleProc) Now() time.Duration        { return 0 }
func (idleProc) Sleep(time.Duration)       {}
func (idleProc) Go(string, func(sim.Proc)) { panic("benchmark: idleProc cannot spawn") }
func (idleProc) Runtime() sim.Runtime      { return nil }

// zeroNet is a message network that charges nothing.
var zeroNet = msg.Config{}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// calibBuf is the fixed input of the calibration kernel.
var calibBuf = func() []byte {
	b := make([]byte, 1<<20)
	(&inputs{seed: 1988}).fill(b, 0, 0)
	return b
}()

var calibSink uint32

// calibrate runs the fixed CRC-32C-over-1-MB kernel once and returns its
// host time. It runs between reps, so a slow machine can be told from slow
// code: when calib_ns and host_us_per_op rise together, suspect the box.
func calibrate() time.Duration {
	t := time.Now()
	calibSink += crc32.Checksum(calibBuf, castagnoli)
	return time.Since(t)
}

// runProbes runs every layer probe under one root span and returns the
// source-(b) metrics. scratch is a directory the file-backed probes may
// write under.
func runProbes(t *tracer, scratch string) (map[string]float64, error) {
	root := t.begin("probes", 0)
	defer t.end(root)
	out := map[string]float64{}
	for _, p := range []func(*tracer, int, string, map[string]float64) error{
		probeSim, probeMsg, probeObs, probeDisk, probeEFS, probeLFS,
		probeCore, probeRaft, probeReplica, probeTCP, probeBoot, probeVerify,
	} {
		if err := p(t, root, scratch, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func probeSim(t *tracer, parent int, _ string, out map[string]float64) error {
	var err error
	ns, allocs := t.probe("sim.queue_rtt", parent, 4000, nil, func(n int) {
		rt := sim.NewVirtual()
		ping, pong := rt.NewQueue("ping"), rt.NewQueue("pong")
		rt.Go("echo", func(p sim.Proc) {
			for {
				v, ok := ping.Recv(p)
				if !ok {
					return
				}
				pong.Send(v)
			}
		})
		rt.Go("driver", func(p sim.Proc) {
			for i := 0; i < n; i++ {
				ping.Send(i)
				pong.Recv(p)
			}
			ping.Close()
		})
		if e := rt.Wait(); e != nil {
			err = e
		}
	})
	out["sim.queue_rtt_ns"], out["sim.queue_rtt_allocs"] = ns, allocs
	out["sim.sleep_ns"], _ = t.probe("sim.sleep", parent, 4000, nil, func(n int) {
		rt := sim.NewVirtual()
		rt.Go("sleeper", func(p sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Millisecond)
			}
		})
		if e := rt.Wait(); e != nil {
			err = e
		}
	})
	return err
}

func probeMsg(t *tracer, parent int, _ string, out map[string]float64) error {
	var err error
	out["msg.rpc_ns"], out["msg.rpc_allocs"] = t.probe("msg.rpc", parent, 2000, nil, func(n int) {
		rt := sim.NewVirtual()
		net := msg.NewNetwork(rt, zeroNet)
		srv := net.NewPort(msg.Addr{Node: 1, Port: "srv"})
		rt.Go("server", func(p sim.Proc) {
			msg.Serve(p, net, 1, srv, func(_ sim.Proc, req *msg.Message) (any, int) { return req.Body, 8 })
		})
		rt.Go("client", func(p sim.Proc) {
			defer srv.Close()
			c := msg.NewClient(p, net, 0, "cli")
			defer c.Close()
			for i := 0; i < n; i++ {
				if _, e := c.Call(srv.Addr(), i, 8); e != nil {
					err = e
					return
				}
			}
		})
		if e := rt.Wait(); e != nil {
			err = e
		}
	})
	return err
}

func probeObs(t *tracer, parent int, _ string, out map[string]float64) error {
	const spans = 20000
	var rec *obs.Recorder
	fresh := func() { rec = obs.NewRecorder(obs.Config{SpanCap: spans}) }
	out["obs.span_ns"], _ = t.probe("obs.span", parent, spans, fresh, func(n int) {
		tr := rec.NewTrace()
		for i := 0; i < n; i++ {
			at := time.Duration(i)
			rec.Start(at, tr, 0, "probe.span", 0).End(at+1, nil)
		}
	})
	return nil
}

func probeDisk(t *tracer, parent int, scratch string, out map[string]float64) error {
	var err error
	block := make([]byte, efs.BlockSize)
	var d *disk.Disk
	fresh := func() { d = disk.New(disk.Config{NumBlocks: 256, Timing: disk.FixedTiming{}}) }
	out["disk.rw_ns"], _ = t.probe("disk.rw", parent, 4000, fresh, func(n int) {
		for i := 0; i < n; i++ {
			if e := d.WriteBlock(idleProc{}, i%256, block); e != nil {
				err = e
			}
			if _, e := d.ReadBlock(idleProc{}, i%256); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	path := filepath.Join(scratch, fmt.Sprintf("probe-%d.disk", os.Getpid()))
	st, err := disk.OpenFileStore(path, efs.BlockSize, 64)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	syncs := uint64(0)
	ns, _ := t.probe("disk.filestore_sync", parent, 4, nil, func(n int) {
		for i := 0; i < n; i++ {
			for b := 0; b < 8; b++ {
				st.WriteBlockAt(b, block)
			}
			syncs++
			if e := st.Sync(0, 8*syncs, syncs); e != nil {
				err = e
			}
		}
	})
	out["disk.filestore_sync_us"] = ns / 1000
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

func probeEFS(t *tracer, parent int, _ string, out map[string]float64) error {
	var err error
	data := make([]byte, efs.DataBytes)
	const n = 2000
	var fs *efs.FS
	// fresh formats a new volume holding one empty file, before each batch.
	fresh := func() {
		if err != nil {
			return
		}
		d := disk.New(disk.Config{NumBlocks: 4096, Timing: disk.FixedTiming{}})
		if fs, err = efs.Format(idleProc{}, d, efs.Options{}); err == nil {
			err = fs.Create(idleProc{}, 1)
		}
	}
	out["efs.append_ns"], out["efs.append_allocs"] = t.probe("efs.append", parent, n, fresh, func(n int) {
		hint := int32(-1)
		for i := 0; i < n && err == nil; i++ {
			hint, err = fs.WriteBlock(idleProc{}, 1, uint32(i), data, hint)
		}
	})
	if err != nil {
		return err
	}
	// fs now holds the last batch's n-block file: read it sequentially.
	out["efs.read_ns"], _ = t.probe("efs.read", parent, n, nil, func(n int) {
		hint := int32(-1)
		for i := 0; i < n && err == nil; i++ {
			_, hint, err = fs.ReadBlock(idleProc{}, 1, uint32(i), hint)
		}
	})
	return err
}

// metricCatalog returns the name of every counter the program can count,
// each between backquotes: the facade's own reference of the typed metrics
// it registers (the text of metrics.md, which the root tests keep current),
// plus the EFS block-cache counters, which are created on first use and so
// are listed from a freshly mounted volume that has read one block twice.
func metricCatalog() (string, error) {
	var b strings.Builder
	if err := bridge.WriteMetricsDoc(&b); err != nil {
		return "", err
	}
	d := disk.New(disk.Config{NumBlocks: 256, Timing: disk.FixedTiming{}})
	fs, err := efs.Format(idleProc{}, d, efs.Options{})
	if err == nil {
		err = fs.Create(idleProc{}, 1)
	}
	if err == nil {
		_, err = fs.WriteBlock(idleProc{}, 1, 0, make([]byte, efs.DataBytes), -1)
	}
	if err == nil {
		err = fs.Sync(idleProc{})
	}
	if err == nil {
		fs, err = efs.Mount(idleProc{}, d, efs.Options{}) // a cold cache
	}
	if err != nil {
		return "", err
	}
	for i := 0; i < 2 && err == nil; i++ {
		_, _, err = fs.ReadBlock(idleProc{}, 1, 0, -1)
	}
	for _, v := range fs.Stats().Registry().Values() {
		fmt.Fprintf(&b, "`%s`\n", v.Name)
	}
	return b.String(), err
}

// probeCluster boots a zero-latency cluster of p nodes, runs fn as a client
// process against it, and returns fn's or the simulation's error.
func probeCluster(p int, fn func(proc sim.Proc, cl *core.Cluster, c *core.Client) error) error {
	rt := sim.NewVirtual()
	cl, err := core.StartCluster(rt, core.ClusterConfig{
		P:    p,
		Node: lfs.Config{DiskBlocks: 4096, Timing: disk.FixedTiming{}},
		Net:  &zeroNet,
	})
	if err != nil {
		return err
	}
	var fnErr error
	rt.Go("benchmark-probe", func(proc sim.Proc) {
		defer cl.Stop()
		c := cl.NewClient(proc, 0, "benchmark.probe")
		defer c.Close()
		fnErr = fn(proc, cl, c)
	})
	if err := rt.Wait(); err != nil {
		return err
	}
	return fnErr
}

func probeLFS(t *tracer, parent int, _ string, out map[string]float64) error {
	const vec = 32
	data := make([]byte, efs.DataBytes)
	return probeCluster(1, func(proc sim.Proc, cl *core.Cluster, _ *core.Client) error {
		lc := lfs.NewClient(proc, cl.Net, 0, "benchmark.probe.lfs")
		defer lc.C.Close()
		node := cl.Nodes[0].ID
		// The request vectors are the caller's, built once: the probe
		// times the LFS client and server, not make().
		const calls = 8
		writes, reads := make([][]lfs.VecWrite, calls), make([][]uint32, calls)
		for i := range writes {
			writes[i], reads[i] = make([]lfs.VecWrite, vec), make([]uint32, vec)
			for j := range writes[i] {
				reads[i][j] = uint32(i*vec + j)
				writes[i][j] = lfs.VecWrite{BlockNum: reads[i][j], Data: data}
			}
		}
		var err error
		file := uint32(100)
		newFile := func() {
			if err == nil {
				file++
				err = lc.Create(node, file)
			}
		}
		ns, _ := t.probe("lfs.writevec", parent, calls, newFile, func(n int) {
			for i := 0; i < n && err == nil; i++ {
				_, err = lc.WriteVec(node, file, writes[i], -1)
			}
		})
		out["lfs.writevec_ns_per_blk"] = ns / vec
		if err != nil {
			return err
		}
		ns, _ = t.probe("lfs.readvec", parent, calls, nil, func(n int) {
			for i := 0; i < n && err == nil; i++ {
				_, err = lc.ReadVec(node, file, reads[i], -1)
			}
		})
		out["lfs.readvec_ns_per_blk"] = ns / vec
		return err
	})
}

func probeCore(t *tracer, parent int, _ string, out map[string]float64) error {
	return probeCluster(nodes, func(_ sim.Proc, _ *core.Cluster, c *core.Client) error {
		if _, err := c.Create("probe"); err != nil {
			return err
		}
		var err error
		out["core.open_ns"], _ = t.probe("core.open", parent, 500, nil, func(n int) {
			for i := 0; i < n && err == nil; i++ {
				_, err = c.Open("probe")
			}
		})
		return err
	})
}

// probeRaft hand-drives a 3-node MemStore group: one step is propose on the
// leader, append on both followers, their acks, and the commit.
func probeRaft(t *tracer, parent int, _ string, out map[string]float64) error {
	peers := []int{0, 1, 2}
	group := make([]*raft.Node, len(peers))
	var now time.Duration
	for i := range group {
		group[i] = raft.New(raft.Config{ID: i, Peers: peers, Seed: int64(1000 + i), Store: &raft.MemStore{}})
		if _, err := group[i].Load(idleProc{}, now); err != nil {
			return err
		}
	}
	inbox := make([][]any, len(group))
	// round ticks, steps and flushes every node once, routing what each
	// sends into the others' inboxes.
	round := func() error {
		for id, nd := range group {
			if now >= nd.Deadline() {
				nd.Tick(now)
			}
			for _, m := range inbox[id] {
				nd.Step(m, now)
			}
			inbox[id] = inbox[id][:0]
			sent, err := nd.Flush(idleProc{})
			if err != nil {
				return err
			}
			for _, o := range sent {
				inbox[o.To] = append(inbox[o.To], o.Msg)
			}
		}
		return nil
	}
	leader := -1
	for i := 0; i < 2000 && leader < 0; i++ {
		if err := round(); err != nil {
			return err
		}
		now += 5 * time.Millisecond
		for id, nd := range group {
			if nd.ReadyToLead() {
				leader = id
			}
		}
	}
	if leader < 0 {
		return fmt.Errorf("raft probe: no leader elected")
	}
	entry := make([]byte, 64)
	var err error
	applied := uint64(0)
	out["raft.step_ns"], out["raft.step_allocs"] = t.probe("raft.step", parent, 500, nil, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			index, _, ok := group[leader].Propose(entry, now)
			if !ok {
				err = fmt.Errorf("raft probe: leader %d refused a proposal", leader)
				return
			}
			// Leader flush -> follower append -> leader sees the acks.
			for r := 0; r < 3 && err == nil; r++ {
				err = round()
			}
			now += time.Millisecond
			for _, nd := range group {
				for _, e := range nd.TakeCommitted() {
					applied = max(applied, e.Index)
				}
			}
			if applied < index {
				err = fmt.Errorf("raft probe: entry %d not committed after one exchange (applied %d)", index, applied)
			}
			// Keep the log short, as the replicated server's snapshots do.
			if index%64 == 0 {
				for _, nd := range group {
					nd.Compact(min(index, nd.Status().Commit), nil)
				}
			}
		}
	})
	return err
}

func probeReplica(t *tracer, parent int, _ string, out map[string]float64) error {
	payload := make([]byte, core.PayloadBytes)
	return probeCluster(nodes, func(proc sim.Proc, _ *core.Cluster, c *core.Client) error {
		var err error
		var rs *replica.RS
		file := 0
		newFile := func() {
			if err == nil {
				file++
				rs, err = replica.CreateRS(proc, c, fmt.Sprintf("probe.rs%d", file), replica.RSOptions{K: 6, M: 2})
			}
		}
		ns, _ := t.probe("replica.rs_append", parent, 96, newFile, func(n int) {
			for i := 0; i < n && err == nil; i++ {
				payload[0] = byte(i)
				err = rs.Append(payload)
			}
		})
		out["replica.rs_append_us"] = ns / 1000
		if err != nil {
			return err
		}
		ns, _ = t.probe("replica.rs_reconstruct", parent, 96, nil, func(n int) {
			for i := 0; i < n && err == nil; i++ {
				_, err = rs.Reconstruct(int64(i))
			}
		})
		out["replica.rs_reconstruct_us"] = ns / 1000
		return err
	})
}

// probeTCP times a loopback round trip of lfs.ReadReq -> 1 KB lfs.ReadResp
// between two tcpnet peers. No workload crosses tcpnet; rpc_allocs is the
// steady number a gob change would move. A sandbox without loopback
// sockets reports 0 for both rather than failing the run.
func probeTCP(t *tracer, parent int, _ string, out map[string]float64) error {
	out["tcpnet.rpc_us"], out["tcpnet.rpc_allocs"] = 0, 0
	a, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: tcpnet probe skipped:", err)
		return nil
	}
	defer a.Close()
	b, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: tcpnet probe skipped:", err)
		return nil
	}
	defer b.Close()
	a.AddRoute(2, b.Addr())
	b.AddRoute(1, a.Addr())
	server := b.NewPort(msg.Addr{Node: 2, Port: "lfs"})
	client := a.NewPort(msg.Addr{Node: 1, Port: "cli"})
	served := make(chan error, 1) // the one send: the server loop's exit status
	go func() {
		resp := lfs.ReadResp{Data: make([]byte, efs.BlockSize)}
		for {
			m, ok := server.Recv()
			if !ok {
				served <- nil
				return
			}
			if err := b.Send(m.From, &msg.Message{From: server.Addr(), ReqID: m.ReqID, Body: resp}); err != nil {
				served <- err
				return
			}
		}
	}()
	var callErr error
	id := uint64(0)
	ns, allocs := t.probe("tcpnet.rpc", parent, 200, nil, func(n int) {
		for i := 0; i < n && callErr == nil; i++ {
			id++
			req := &msg.Message{From: client.Addr(), ReqID: id, Body: lfs.ReadReq{FileID: 1, BlockNum: uint32(i), Hint: -1}}
			if callErr = a.Send(server.Addr(), req); callErr != nil {
				return
			}
			if m, ok := client.Recv(); !ok || m.ReqID != id {
				callErr = fmt.Errorf("tcpnet probe: reply %d lost", id)
			}
		}
	})
	server.Close()
	if err := <-served; callErr == nil {
		callErr = err
	}
	if callErr != nil {
		return callErr
	}
	out["tcpnet.rpc_us"], out["tcpnet.rpc_allocs"] = ns/1000, allocs
	return nil
}

func probeBoot(t *tracer, parent int, _ string, out map[string]float64) error {
	var err error
	ns, _ := t.probe("bridge.boot", parent, 1, nil, func(int) {
		var sys *bridge.System
		if sys, err = bridge.New(bridge.Config{Nodes: nodes}); err == nil {
			err = sys.Run(func(*bridge.Session) error { return nil })
		}
	})
	out["bridge.boot_ms"] = ns / 1e6
	return err
}

// probeVerify times the benchmark's own share of the read workloads' measured
// window: regenerating one block and comparing it with the block read. It is
// what to subtract from host_us_per_op on naive_read, stream_read and the
// read half of redundant_degraded to get the program's cost alone.
func probeVerify(t *tracer, parent int, _ string, out map[string]float64) error {
	in := newInputs(1988, bridge.PayloadBytes)
	read := in.blocks(fileSrc, 0, 64)
	exp := make([]byte, in.recLen)
	differ := 0
	out["host.verify_ns_per_blk"], _ = t.probe("host.verify", parent, 20000, nil, func(n int) {
		for i := 0; i < n; i++ {
			in.fill(exp, fileSrc, i%len(read))
			if !bytes.Equal(exp, read[i%len(read)]) {
				differ++
			}
		}
	})
	if differ > 0 {
		return fmt.Errorf("verify probe: the generator disagreed with itself on %d blocks", differ)
	}
	return nil
}

package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bridge/internal/distrib"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// nodeCmd is one command that makes the server call storage node index 0.
// prep runs on the healthy cluster (after deadNodeSetup) and returns the
// command and, if it holds a port open, its cleanup.
type nodeCmd struct {
	name string
	prep func(p sim.Proc, cl *Cluster, c *Client) (run func() error, done func())
}

func cmdOf(run func(c *Client) error) func(sim.Proc, *Cluster, *Client) (func() error, func()) {
	return func(_ sim.Proc, _ *Cluster, c *Client) (func() error, func()) {
		return func() error { return run(c) }, nil
	}
}

// nodeCmds is every command that reaches a storage node: the metadata
// fan-outs, the chain walk, the sweeps and the job transfers, with the
// single-block and vectored data calls as controls.
var nodeCmds = []nodeCmd{
	{"create", cmdOf(func(c *Client) error { _, err := c.Create("new"); return err })},
	{"tree create", cmdOf(func(c *Client) error { _, err := c.CreateSpec("new", distrib.Spec{}, true); return err })},
	{"delete", cmdOf(func(c *Client) error { _, err := c.Delete("f"); return err })},
	{"open", cmdOf(func(c *Client) error { _, err := c.Open("f"); return err })},
	{"stat", cmdOf(func(c *Client) error { _, err := c.Stat("f"); return err })},
	{"flush", cmdOf(func(c *Client) error { _, err := c.Flush("f"); return err })},
	{"disordered read", cmdOf(func(c *Client) error { _, err := c.ReadAt("d", chainBlocks-1); return err })},
	{"disordered write", cmdOf(func(c *Client) error { return c.WriteAt("d", chainBlocks-1, payload(99)) })},
	{"repair node", cmdOf(func(c *Client) error { _, err := c.RepairNode(0); return err })},
	{"fsck", cmdOf(func(c *Client) error { _, err := c.Fsck(0); return err })},
	{"scrub", cmdOf(func(c *Client) error { _, err := c.Scrub(0); return err })},
	{"recovery", cmdOf(func(c *Client) error {
		_, err := c.Recovery(0)
		if err != nil && strings.Contains(err.Error(), "no recovery report") {
			return nil // the node's own answer: these volumes are not journaled
		}
		return err
	})},
	{"job read", func(_ sim.Proc, cl *Cluster, c *Client) (func() error, func()) {
		w := NewJobWorker(cl.Net, 0, "w")
		job, err := c.ParallelOpen("f", []msg.Addr{w.Addr()})
		return func() error {
			if err == nil {
				_, _, err = job.Read() // block 0, on node 0
			}
			return err
		}, w.Close
	}},
	{"job write", func(p sim.Proc, cl *Cluster, c *Client) (func() error, func()) {
		w := NewJobWorker(cl.Net, 0, "w")
		job, err := c.ParallelOpen("f", []msg.Addr{w.Addr()})
		p.Go("supplier", func(wp sim.Proc) { _ = w.Supply(wp, payload(50), false) })
		return func() error {
			if err == nil {
				_, err = job.Write() // block 8, on node 0
			}
			return err
		}, w.Close
	}},
	{"ReadAt", cmdOf(func(c *Client) error { _, err := c.ReadAt("f", 0); return err })},
	{"WriteAt", cmdOf(func(c *Client) error { return c.WriteAt("f", 0, payload(99)) })},
	{"ReadAtN", cmdOf(func(c *Client) error { _, err := c.ReadAtN("f", 0, 4); return err })},
}

const chainBlocks = 12

// deadNodeSetup writes the files the commands use: f (8 blocks, round-robin
// from node 0), g (the file the "next request" reads, block 1 on node 1) and
// d (a chain whose head is on node 0).
func deadNodeSetup(c *Client) error {
	for _, name := range []string{"f", "g"} {
		if _, err := c.Create(name); err != nil {
			return err
		}
	}
	if d, err := c.CreateDisordered("d"); err != nil || scatterNode(d.FileID, 0, 4) != 0 {
		return fmt.Errorf("chain file %d, whose head should be on node 0: %v", d.FileID, err)
	}
	for _, f := range []struct {
		name string
		n    int
	}{{"f", 8}, {"g", 2}, {"d", chainBlocks}} {
		for i := 0; i < f.n; i++ {
			if err := c.SeqWrite(f.name, payload(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// dropReply loses the first message storage node index node sends the
// server's LFS client once armed: a reply, or a tree acknowledgement.
type dropReply struct {
	from  msg.NodeID
	to    msg.Addr
	armed bool
}

func (d *dropReply) Deliver(_ time.Duration, from msg.NodeID, to msg.Addr, _ *msg.Message) msg.Fate {
	if !d.armed || from != d.from || to != d.to {
		return msg.Fate{}
	}
	d.armed = false
	return msg.Fate{Drop: true}
}

func notPing(body any) bool { _, ping := body.(lfs.PingReq); return !ping }

// TestInFlightAbandon is the dead-node matrix: every command by which the
// server reaches a storage node, against a node (index 0) that is
//
//   - dead: already declared Dead — ErrNodeDown in under 100 ms, and a delete
//     still frees the live nodes' blocks;
//   - dying: failed with the call in flight — abandoned with ErrNodeDown
//     within the monitor's detection time;
//   - silent: failed with no monitor running — ErrLFSFailed after one
//     LFSTimeout, and the server serves the next request;
//   - lossy: one reply lost with LFSRetry on — the command succeeds (for
//     create and delete, because "exists" / "not found" in answer to a
//     retransmission counts as done).
//
// After every cell no reply is left parked in the server's LFS client, and
// where nothing was sent no discarded id is left either.
func TestInFlightAbandon(t *testing.T) {
	const lfsTimeout = 2 * time.Second
	h := HealthConfig{}.applyDefaults()
	detect := time.Duration(h.DeadAfter)*(h.Every+h.Timeout) + h.Every
	for _, mode := range []string{"dead", "dying", "silent", "lossy"} {
		for _, cmd := range nodeCmds {
			cfg := fastCfg(4)
			cfg.Server.LFSTimeout = lfsTimeout
			switch mode {
			case "dead", "dying":
				cfg.Server.LFSTimeout = 20 * time.Second
				cfg.Server.Health = &HealthConfig{}
			case "lossy":
				cfg.Server.LFSRetry = &RetryPolicy{}
			}
			withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
				cell := mode + "/" + cmd.name
				if err := deadNodeSetup(c); err != nil {
					t.Errorf("%s: setup: %v", cell, err)
					return
				}
				run, done := cmd.prep(p, cl, c)
				if done != nil {
					defer done()
				}
				liveFree := func() (n int) {
					for _, node := range cl.Nodes[1:] {
						n += node.FS().FreeBlocks()
					}
					return n
				}
				switch mode {
				case "dead":
					cl.FailNode(0)
					p.Sleep(detect)
				case "dying":
					cl.Net.SetFault(&failOn{cl: cl, node: 0, match: notPing})
				case "silent":
					cl.FailNode(0)
				case "lossy":
					cl.Net.SetFault(&dropReply{from: cl.Nodes[0].ID, to: msg.Addr{Port: PortName + ".lfscli"}, armed: true})
				}
				free := liveFree()
				start := p.Now()
				err := run()
				took := p.Now() - start
				switch mode {
				case "dead":
					if !errors.Is(err, ErrNodeDown) || took >= 100*time.Millisecond {
						t.Errorf("%s: %v after %v; want ErrNodeDown in under 100ms", cell, err, took)
					}
					if cmd.name == "delete" && liveFree() <= free {
						t.Errorf("%s: the live nodes have %d free blocks, %d before: nothing was freed", cell, liveFree(), free)
					}
				case "dying":
					if !errors.Is(err, ErrNodeDown) || took > detect {
						t.Errorf("%s: %v after %v; want ErrNodeDown within %v", cell, err, took, detect)
					}
				case "silent":
					if !errors.Is(err, ErrLFSFailed) || took < lfsTimeout || took > lfsTimeout+time.Second {
						t.Errorf("%s: %v after %v; want ErrLFSFailed after one LFSTimeout %v", cell, err, took, lfsTimeout)
					}
					if got, err := c.ReadAt("g", 1); err != nil || !bytes.Equal(got, payload(1)) {
						t.Errorf("%s: the next request: %q, %v", cell, head(got), err)
					}
				case "lossy":
					if err != nil {
						t.Errorf("%s: %v; want the retransmission to succeed", cell, err)
					}
				}
				p.Sleep(time.Second) // anything still on its way arrives
				pending, discarded := cl.Servers[0].lc.C.Parked()
				if pending != 0 || (mode == "dead" && discarded != 0) {
					t.Errorf("%s: %d replies parked and %d ids discarded in the server's LFS client", cell, pending, discarded)
				}
			})
		}
	}

	// silent interior/tree create: the dead node (index 5) heads the second
	// half of the tree below the root (index 0), so the root's agent waits on
	// it and answers after the server has given up. The server fails the
	// create, and its next call takes that late answer off its port and drops
	// it. How long the create takes, and that the agent serves again, is the
	// tools' TestTreeCreateWithADeadInteriorNodeLeavesTheAgentServing.
	withCluster(t, fastCfg(8), func(p sim.Proc, cl *Cluster, c *Client) {
		cl.FailNode(5)
		if _, err := c.CreateSpec("wide", distrib.Spec{}, true); !errors.Is(err, ErrLFSFailed) {
			t.Errorf("silent interior/tree create: %v, want ErrLFSFailed", err)
		}
		p.Sleep(time.Second)
		if _, err := c.CreateSpec("after", distrib.Spec{P: 4}, false); err != nil {
			t.Errorf("silent interior/a create on healthy nodes: %v", err)
		}
		if pending, discarded := cl.Servers[0].lc.C.Parked(); pending != 0 || discarded != 0 {
			t.Errorf("silent interior: %d replies parked and %d ids discarded in the server's LFS client", pending, discarded)
		}
	})
}

// TestJobReadUsesHint: a width-1 job read of a file many times the per-node
// EFS cache costs about what the naive sequential read does, because both
// hand the node the block address the last read returned.
func TestJobReadUsesHint(t *testing.T) {
	cfg := wrenCfg(4)
	cfg.Node.EFS.CacheBlocks = 4
	withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
		const n = 4 * 4 * 16 // 16 caches' worth on each node
		if _, err := c.Create("f"); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		blocks := make([][]byte, n)
		for i := range blocks {
			blocks[i] = payload(i)
		}
		if _, err := c.AppendN("f", blocks); err != nil {
			t.Errorf("AppendN: %v", err)
			return
		}
		start := p.Now()
		if _, err := c.Open("f"); err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := 0; i < n; i++ {
			if data, _, err := c.SeqRead("f"); err != nil || !bytes.Equal(data, payload(i)) {
				t.Errorf("SeqRead %d: %q, %v", i, head(data), err)
				return
			}
		}
		naive := p.Now() - start

		w := NewJobWorker(cl.Net, 0, "w")
		defer w.Close()
		start = p.Now()
		job, err := c.ParallelOpen("f", []msg.Addr{w.Addr()})
		if err != nil {
			t.Errorf("ParallelOpen: %v", err)
			return
		}
		for i := 0; i < n; i++ {
			if _, _, err := job.Read(); err != nil {
				t.Errorf("job read %d: %v", i, err)
				return
			}
			if d, ok := w.Next(p); !ok || !bytes.Equal(d.Data, payload(i)) {
				t.Errorf("job read %d delivered %q", i, head(d.Data))
				return
			}
		}
		if jobTime := p.Now() - start; float64(jobTime) > 1.25*float64(naive) {
			t.Errorf("a width-1 job read took %v, the naive read %v; want within 1.25x", jobTime, naive)
		}
	})
}

// TestJobAndTreeCreatePinned pins what the rewrite onto lfsStart/lfsFinish
// must not move: on a healthy cluster a job write and read carry the same
// bytes in the same order to the same nodes, and a tree create leaves the
// file a sequential create does.
func TestJobAndTreeCreatePinned(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		const width, n = 3, 10
		perNode := func(meta Meta) (counts []int) {
			lc := lfs.NewClient(p, cl.Net, 0, fmt.Sprintf("probe%d", meta.LFSFileID))
			defer lc.C.Close()
			for _, node := range meta.Nodes {
				info, err := lc.Stat(node, meta.LFSFileID)
				if err != nil {
					t.Errorf("%s on n%d: %v", meta.Name, node, err)
				}
				counts = append(counts, info.Blocks)
			}
			return counts
		}
		seq, err := c.Create("seq")
		tree, terr := c.CreateSpec("tree", distrib.Spec{}, true)
		if err != nil || terr != nil {
			t.Errorf("create: %v, %v", err, terr)
			return
		}
		if tree.Spec != seq.Spec || fmt.Sprint(tree.Nodes) != fmt.Sprint(seq.Nodes) || tree.FileID != seq.FileID+1 {
			t.Errorf("tree create made %+v, sequential %+v", tree, seq)
		}
		if got := fmt.Sprint(perNode(tree)); got != "[0 0 0 0]" {
			t.Errorf("tree-created file per node: %s", got)
		}

		workers := make([]*JobWorker, width)
		addrs := make([]msg.Addr, width)
		for i := range workers {
			workers[i] = NewJobWorker(cl.Net, 0, fmt.Sprintf("w%d", i))
			defer workers[i].Close()
			addrs[i] = workers[i].Addr()
		}
		job, err := c.ParallelOpen("tree", addrs)
		if err != nil {
			t.Errorf("ParallelOpen: %v", err)
			return
		}
		// Four rounds: worker i supplies blocks i, i+width, …, and EOF past n.
		for i, w := range workers {
			p.Go(fmt.Sprintf("supplier%d", i), func(wp sim.Proc) {
				for b := i; b < i+4*width; b += width {
					if err := w.Supply(wp, payload(b), b >= n); err != nil {
						t.Errorf("supply block %d: %v", b, err)
						return
					}
				}
			})
		}
		var rounds []int
		for total := 0; total < n; {
			written, err := job.Write()
			if err != nil {
				t.Errorf("job write: %v", err)
				return
			}
			rounds = append(rounds, written)
			total += written
		}
		if got := fmt.Sprint(rounds); got != "[3 3 3 1]" {
			t.Errorf("job write rounds: %s", got)
		}
		meta, err := c.Stat("tree")
		if err != nil || meta.Blocks != n {
			t.Errorf("after the job write: %d blocks, %v", meta.Blocks, err)
		}
		if got := fmt.Sprint(perNode(meta)); got != "[3 3 2 2]" {
			t.Errorf("job-written file per node: %s", got)
		}
		var delivered []string
		for eof := false; !eof; {
			var got int
			if got, eof, err = job.Read(); err != nil {
				t.Errorf("job read: %v", err)
				return
			}
			for i, w := range workers {
				d, ok := w.Next(p)
				if !ok || d.EOF != (i >= got) || (!d.EOF && !bytes.Equal(d.Data, payload(int(d.Seq)))) {
					t.Errorf("worker %d got seq %d eof %v %q", i, d.Seq, d.EOF, head(d.Data))
				}
				delivered = append(delivered, fmt.Sprint(d.Seq))
			}
		}
		if got := strings.Join(delivered, " "); got != "0 1 2 3 4 5 6 7 8 9 10 11" {
			t.Errorf("job read delivered seqs %s", got)
		}
	})
}

// TestRefusingNodeFailsTheCall: a node whose volume does not boot answers
// every request with a bare status instead of the reply its kind asks for.
// The server returns that failure for a block read and an fsck alike; it
// does not trip over the reply's kind.
func TestRefusingNodeFailsTheCall(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Error(err)
			return
		}
		if err := c.SeqWrite("f", []byte("x")); err != nil {
			t.Error(err)
			return
		}
		// Block 0 lives on node index 0. Garble its metadata region (the
		// superblock stays) so the next mount fails its bitmap checksum.
		n := cl.Nodes[0]
		cl.FailNode(0)
		n.Disk.Restore()
		for bn := 1; bn < 64; bn++ {
			if err := n.Disk.WriteBlock(p, bn, make([]byte, efs.BlockSize)); err != nil {
				t.Error(err)
				return
			}
		}
		cl.RestartNode(0)
		p.Sleep(time.Second)
		if _, err := c.ReadAt("f", 0); !errors.Is(err, ErrLFSFailed) || !strings.Contains(err.Error(), "cannot boot its volume") {
			t.Errorf("read from a node that cannot boot = %v, want ErrLFSFailed with the boot failure", err)
		}
		if _, err := c.Fsck(0); err == nil || !strings.Contains(err.Error(), "cannot boot its volume") {
			t.Errorf("fsck of a node that cannot boot = %v, want the boot failure", err)
		}
	})
}

// TestSweepOutlastsLFSTimeout: a check, a repair and a scrub walk the node's
// whole volume, which on a fragmented volume of 15 ms disks takes far longer
// than a short LFSTimeout. The server grants each sweep lfs.Client's
// allowance per block of the volume (twice for a repair), so each completes
// with a clean report instead of timing out while the node is still walking,
// and the node is free for the next request.
func TestSweepOutlastsLFSTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	cfg := wrenCfg(4)
	cfg.Server.LFSTimeout = timeout
	withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
		p.Sleep(2 * time.Second) // the nodes format their volumes at boot
		// Four files appended in turn, a stripe at a time, interleave every
		// node's chains.
		const files, rounds = 4, 96
		for f := 0; f < files; f++ {
			if _, err := c.Create(fmt.Sprintf("f%d", f)); err != nil {
				t.Errorf("Create: %v", err)
				return
			}
		}
		for r := 0; r < rounds; r++ {
			for f := 0; f < files; f++ {
				blocks := make([][]byte, 4)
				for i := range blocks {
					blocks[i] = payload(r*4 + i)
				}
				if _, err := c.AppendN(fmt.Sprintf("f%d", f), blocks); err != nil {
					t.Errorf("AppendN: %v", err)
					return
				}
			}
		}
		// Node 0 holds one block of each 4-block append.
		checked := func(rep efs.CheckReport) error {
			if !rep.OK() || rep.Files != files || rep.ChainBlocks != files*rounds {
				return fmt.Errorf("report %+v, want %d clean files of %d blocks in all", rep, files, files*rounds)
			}
			return nil
		}
		sweeps := []struct {
			name string
			run  func() error
		}{
			{"fsck", func() error {
				rep, err := c.Fsck(0)
				if err != nil {
					return err
				}
				return checked(rep)
			}},
			{"repair", func() error {
				rep, fixes, err := c.FsckRepair(0)
				if err != nil {
					return err
				}
				if fixes != 0 {
					return fmt.Errorf("%d fixes on a clean volume", fixes)
				}
				return checked(rep)
			}},
			{"scrub", func() error {
				rep, err := c.Scrub(0)
				if err != nil {
					return err
				}
				if len(rep.Errors) != 0 || rep.Scanned < files*rounds {
					return fmt.Errorf("scrub scanned %d blocks and found %d errors", rep.Scanned, len(rep.Errors))
				}
				return nil
			}},
		}
		for _, sw := range sweeps {
			start := p.Now()
			err := sw.run()
			took := p.Now() - start
			if err != nil {
				t.Errorf("%s: %v after %v", sw.name, err, took)
				continue
			}
			if took <= timeout {
				t.Errorf("%s took %v, within the %v LFSTimeout: the test shows nothing", sw.name, took, timeout)
			}
			if _, err := c.ReadAt("f0", 0); err != nil {
				t.Errorf("read after the %s: %v", sw.name, err)
			}
		}
	})
}

package tools

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/distrib"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
	"bridge/internal/workload"
)

// phaseWatch is a fault hook that faults nothing: it notes when a tool phase —
// the workers named prefix — is spawned, and when the next phase is or the
// tool ends, and at the phase's spawn on node index 0 it runs onSpawn once.
type phaseWatch struct {
	cl         *core.Cluster
	prefix     string
	start, end time.Duration
	onSpawn    func()
}

func (w *phaseWatch) Deliver(now time.Duration, _ msg.NodeID, to msg.Addr, m *msg.Message) msg.Fate {
	req, ok := m.Body.(lfs.SpawnReq)
	switch {
	case !ok:
	case strings.HasPrefix(req.Name, w.prefix+".w"):
		if w.start == 0 {
			w.start = now
		}
		if to.Node == w.cl.Nodes[0].ID && w.onSpawn != nil {
			w.onSpawn()
			w.onSpawn = nil
		}
	case w.start != 0 && w.end == 0:
		w.end = now
	}
	return msg.Fate{}
}

// TestToolsInFlightAbandon is the tools' dead-node matrix: every tool, and each
// phase of the sort, run with no monitor while node index 2 fails under it —
//
//   - disk: its disk fails halfway through the phase, and its LFS answers
//     nothing more;
//   - node: the whole node fails as the phase spawns its workers, after the
//     tool's open.
//
// Every cell fails within its bound, with msg.ErrTimeout or what the node's
// disk said; the virtual run ends without a deadlock (withCluster); and the
// tool leaves nothing parked in its caller's client.
func TestToolsInFlightAbandon(t *testing.T) {
	const victim = 2
	sortOpts := SortOptions{InCore: 8}
	tools := []struct {
		name, phase string
		bound       time.Duration // in units of one call's bound
		run         func(p sim.Proc, c *core.Client) error
	}{
		{"copy", "ecopy", 3, func(p sim.Proc, c *core.Client) error { _, err := Copy(p, c, "src", "dst"); return err }},
		{"grep", "grep", 3, func(p sim.Proc, c *core.Client) error { _, err := Grep(p, c, "src", []byte("x")); return err }},
		{"wc", "wc", 3, func(p sim.Proc, c *core.Client) error { _, err := WC(p, c, "src"); return err }},
		{"delete", "edelete", 3, func(p sim.Proc, c *core.Client) error { _, err := Delete(p, c, "src"); return err }},
		// A failed sort's cleanup gives every scratch file on the dead node
		// one bound.
		{"sort local", "sortlocal", 12, func(p sim.Proc, c *core.Client) error { _, err := Sort(p, c, "src", "dst", sortOpts); return err }},
		{"sort merge", "mergep1", 12, func(p sim.Proc, c *core.Client) error { _, err := Sort(p, c, "src", "dst", sortOpts); return err }},
	}
	for _, tool := range tools {
		for _, fault := range []string{"disk", "node"} {
			t.Run(tool.name+"/"+fault, func(t *testing.T) {
				var mid time.Duration
				for _, dry := range []bool{true, false} {
					withCluster(t, wrenCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
						if err := workload.Fill(p, c, "src", workload.Records(9, 4*32, 64)); err != nil {
							t.Error(err)
							return
						}
						w := &phaseWatch{cl: cl, prefix: tool.phase}
						switch {
						case dry:
						case fault == "disk":
							cl.Runtime().Go("kill-disk", func(kp sim.Proc) {
								kp.Sleep(mid - kp.Now())
								cl.Nodes[victim].Disk.Fail()
							})
						case fault == "node":
							w.onSpawn = func() { cl.FailNode(victim) }
						}
						cl.Net.SetFault(w)
						start := p.Now()
						err := tool.run(p, c)
						took := p.Now() - start
						cl.Net.SetFault(nil)
						if dry {
							if err != nil || w.start == 0 {
								t.Errorf("dry run: %v, phase spawned at %v", err, w.start)
							}
							if w.end == 0 {
								w.end = p.Now()
							}
							mid = (w.start + w.end) / 2
							return
						}
						typed := errors.Is(err, msg.ErrTimeout) || err != nil && strings.Contains(err.Error(), disk.ErrFailed.Error())
						if bound := tool.bound * lfs.DefaultTimeout; !typed || took > bound {
							t.Errorf("%v after %v; want msg.ErrTimeout or the disk's failure within %v", err, took, bound)
						}
						if pending, discarded := c.Msg().Parked(); pending != 0 || discarded != 0 {
							t.Errorf("the tool left %d replies parked and %d ids discarded in its caller's client", pending, discarded)
						}
					})
				}
			})
		}
	}
}

// A tree create whose dead node is interior costs the root's agent one bound,
// not the agent: a copy on healthy nodes right after it takes what it takes
// on a healthy cluster.
func TestTreeCreateWithADeadInteriorNodeLeavesTheAgentServing(t *testing.T) {
	withCluster(t, wrenCfg(8), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		if _, err := c.CreateSpec("src", distrib.Spec{P: 4}, false); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 32; i++ {
			if err := c.SeqWrite("src", []byte(fmt.Sprint(i))); err != nil {
				t.Error(err)
				return
			}
		}
		start := p.Now()
		if _, err := Copy(p, c, "src", "before"); err != nil {
			t.Errorf("Copy on a healthy cluster: %v", err)
			return
		}
		healthy := p.Now() - start
		// Index 5 heads the second half of the tree below the root, index 0.
		cl.FailNode(5)
		start = p.Now()
		_, err := c.CreateSpec("tree", distrib.Spec{}, true)
		if took := p.Now() - start; !errors.Is(err, core.ErrLFSFailed) || took < lfs.DefaultTimeout || took > lfs.DefaultTimeout+time.Second {
			t.Errorf("tree create = %v after %v; want ErrLFSFailed after one LFSTimeout", err, took)
		}
		start = p.Now()
		if _, err := Copy(p, c, "src", "after"); err != nil || p.Now()-start > healthy+10*time.Millisecond {
			t.Errorf("Copy after the tree create = %v after %v; %v on a healthy cluster", err, p.Now()-start, healthy)
		}
	})
}

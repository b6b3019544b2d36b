package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"bridge/internal/msg"
	"bridge/internal/sim"
)

// firstReplyLost drops the first reply of each job command the server sends.
type firstReplyLost struct{ dropped map[string]bool }

func (f *firstReplyLost) Deliver(_ time.Duration, _ msg.NodeID, _ msg.Addr, m *msg.Message) msg.Fate {
	switch m.Body.(type) {
	case ParallelOpenResp, ParallelReadResp, ParallelWriteResp, CloseJobResp:
		kind := fmt.Sprintf("%T", m.Body)
		if !f.dropped[kind] {
			f.dropped[kind] = true
			return msg.Fate{Drop: true}
		}
	}
	return msg.Fate{}
}

// TestJobRetransmitIsExactlyOnce loses the first reply of a parallel open, a
// job read and a job close. The client retransmits each, and each must take
// effect once: one job on the server, the read's t blocks delivered once,
// and the close acknowledged.
func TestJobRetransmitIsExactlyOnce(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		for i := 0; i < 8; i++ {
			if err := c.SeqWrite("f", payload(i)); err != nil {
				t.Errorf("SeqWrite: %v", err)
				return
			}
		}
		results := cl.Runtime().NewQueue("results")
		var workers []msg.Addr
		for w := 0; w < 2; w++ {
			jw := NewJobWorker(cl.Net, 0, fmt.Sprintf("jw%d", w))
			defer jw.Close()
			workers = append(workers, jw.Addr())
			p.Go(fmt.Sprintf("worker%d", w), func(wp sim.Proc) {
				for {
					d, ok := jw.Next(wp)
					if !ok {
						return
					}
					results.Send(d.Seq)
				}
			})
		}
		cl.Net.SetFault(&firstReplyLost{dropped: map[string]bool{}})
		c.SetTimeout(200 * time.Millisecond)
		c.SetRetry(RetryPolicy{Attempts: 4})
		srv := cl.Servers[0]

		job, err := c.ParallelOpen("f", workers)
		if err != nil {
			t.Errorf("ParallelOpen: %v", err)
			return
		}
		if len(srv.jobs) != 1 {
			t.Errorf("one ParallelOpen left %d jobs on the server", len(srv.jobs))
		}
		delivered, _, err := job.Read()
		if err != nil || delivered != 2 {
			t.Errorf("job.Read = %d, %v; want 2 delivered", delivered, err)
		}
		p.Sleep(time.Second)
		var got []int64
		for {
			v, ok, _ := results.TryRecv(p)
			if !ok {
				break
			}
			got = append(got, v.(int64))
		}
		if len(got) != 2 || got[0]+got[1] != 1 {
			t.Errorf("one job read delivered blocks %v to the workers, want 0 and 1", got)
		}
		if err := job.Close(); err != nil {
			t.Errorf("job.Close: %v", err)
		}
		if len(srv.jobs) != 0 {
			t.Errorf("%d jobs left open after Close", len(srv.jobs))
		}
		if _, _, err := job.Read(); !errors.Is(err, ErrNoJob) {
			t.Errorf("read after close = %v, want ErrNoJob", err)
		}
	})
}

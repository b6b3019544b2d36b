package core

import (
	"bytes"
	"testing"
	"time"

	"bridge/internal/fault"
	"bridge/internal/sim"
)

// repCfg is fastCfg with a 3-replica consensus group behind the server
// address set.
func repCfg(p int) ClusterConfig {
	cfg := fastCfg(p)
	cfg.Replicas = 3
	return cfg
}

// awaitLeader spins virtual time until some replica is ready to serve.
func awaitLeader(t *testing.T, p sim.Proc, cl *Cluster) int {
	t.Helper()
	deadline := p.Now() + 5*time.Second
	for p.Now() < deadline {
		if i := cl.LeaderServer(0); i >= 0 {
			return i
		}
		p.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no leader elected within 5s of virtual time")
	return -1
}

// TestReplicatedBasicOps drives the whole metadata protocol through a
// 3-replica consensus group: every mutation is committed to the
// replicated log before its effects land, and the client finds the
// leader by following NotLeader redirects.
func TestReplicatedBasicOps(t *testing.T) {
	withCluster(t, repCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		const n = 12
		for i := 0; i < n; i++ {
			if err := c.SeqWrite("f", payload(i)); err != nil {
				t.Fatalf("SeqWrite %d: %v", i, err)
			}
		}
		meta, err := c.Open("f")
		if err != nil || meta.Blocks != n {
			t.Fatalf("Open = %+v, %v; want %d blocks", meta, err, n)
		}
		for i := 0; i < n; i++ {
			b, eof, err := c.SeqRead("f")
			if err != nil || eof {
				t.Fatalf("SeqRead %d: eof=%v err=%v", i, eof, err)
			}
			if !bytes.Equal(b, payload(i)) {
				t.Fatalf("SeqRead %d: wrong bytes", i)
			}
		}
		if _, eof, err := c.SeqRead("f"); !eof || err != nil {
			t.Fatalf("read past end: eof=%v err=%v, want EOF", eof, err)
		}
		if b, err := c.ReadAt("f", 3); err != nil || !bytes.Equal(b, payload(3)) {
			t.Fatalf("ReadAt(3): %v", err)
		}
		if err := c.WriteAt("f", 3, payload(99)); err != nil {
			t.Fatalf("WriteAt(3): %v", err)
		}
		if b, err := c.ReadAt("f", 3); err != nil || !bytes.Equal(b, payload(99)) {
			t.Fatalf("ReadAt(3) after overwrite: %v", err)
		}
		if m, err := c.Rename("f", "g"); err != nil || m.Name != "g" {
			t.Fatalf("Rename = %+v, %v", m, err)
		}
		if m, err := c.Stat("g"); err != nil || m.Blocks != n {
			t.Fatalf("Stat(g) = %+v, %v", m, err)
		}
		if _, err := c.Create("h"); err != nil {
			t.Fatalf("Create(h): %v", err)
		}
		names, err := c.List()
		if err != nil || len(names) != 2 || names[0] != "g" || names[1] != "h" {
			t.Fatalf("List = %v, %v; want [g h]", names, err)
		}
		if _, err := c.Delete("h"); err != nil {
			t.Fatalf("Delete(h): %v", err)
		}
		if _, err := c.Stat("h"); err == nil {
			t.Fatalf("Stat(h) after delete: want error")
		}
		// Every replica converges on the same committed prefix.
		p.Sleep(200 * time.Millisecond)
		lead := awaitLeader(t, p, cl)
		want := cl.Servers[lead].RaftStatus().Commit
		for i, r := range cl.Servers {
			if got := r.RaftStatus().Commit; got != want {
				t.Errorf("replica %d commit = %d, leader has %d", i, got, want)
			}
		}
	})
}

// TestReplicatedLeaderFailover kills the leader mid-workload with kill-9
// semantics and checks that a new leader takes over, the client retries
// through, no acknowledged write is lost, and the restarted replica
// catches back up from the log.
func TestReplicatedLeaderFailover(t *testing.T) {
	withCluster(t, repCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		const half = 8
		for i := 0; i < half; i++ {
			if err := c.SeqWrite("f", payload(i)); err != nil {
				t.Fatalf("SeqWrite %d: %v", i, err)
			}
		}
		lead := awaitLeader(t, p, cl)
		cl.CrashServer(0, lead, p.Now())
		// The workload continues: the client times out against the dead
		// leader and follows redirects to the new one.
		for i := half; i < 2*half; i++ {
			if err := c.SeqWrite("f", payload(i)); err != nil {
				t.Fatalf("SeqWrite %d after leader kill: %v", i, err)
			}
		}
		meta, err := c.Open("f")
		if err != nil || meta.Blocks != 2*half {
			t.Fatalf("Open = %+v, %v; want %d blocks", meta, err, 2*half)
		}
		for i := 0; i < 2*half; i++ {
			b, _, err := c.SeqRead("f")
			if err != nil || !bytes.Equal(b, payload(i)) {
				t.Fatalf("SeqRead %d after failover: %v", i, err)
			}
		}
		newLead := awaitLeader(t, p, cl)
		if newLead == lead {
			t.Fatalf("leader %d still leading after crash", lead)
		}
		// Restart the crashed replica: it must rejoin and replicate the
		// entries it missed.
		cl.RestartServer(0, lead)
		if _, err := c.Create("post-restart"); err != nil {
			t.Fatalf("Create(post-restart): %v", err)
		}
		p.Sleep(500 * time.Millisecond)
		want := cl.Servers[newLead].RaftStatus().Commit
		if got := cl.Servers[lead].RaftStatus().Commit; got != want {
			t.Errorf("restarted replica commit = %d, leader has %d", got, want)
		}
	})
}

// TestReplicatedMinorityPartition cuts the leader off from both peers and
// checks the safety property: the stranded leader cannot acknowledge
// mutations, the majority elects a replacement that can, and after the
// partition heals the deposed leader converges instead of forking.
func TestReplicatedMinorityPartition(t *testing.T) {
	withCluster(t, repCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("before"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		lead := awaitLeader(t, p, cl)
		inj := fault.New(1)
		cl.Net.SetFault(inj)
		start, healAt := p.Now(), p.Now()+4*time.Second
		leadNode := cl.Servers[lead].Addr().Node
		for i, r := range cl.Servers {
			if i != lead {
				inj.Partition(start, healAt, leadNode, r.Addr().Node)
			}
		}
		stranded := cl.Servers[lead].RaftStatus().Commit
		// The mutation must commit exactly once, on the majority side.
		// The client may try the stranded leader first; it can no longer
		// reach a quorum, so it must refuse rather than acknowledge.
		if _, err := c.Create("during"); err != nil {
			t.Fatalf("Create during partition: %v", err)
		}
		maj := awaitLeader(t, p, cl)
		if maj == lead {
			t.Fatalf("stranded replica %d still reports leadership with commit authority", lead)
		}
		if got := cl.Servers[lead].RaftStatus().Commit; got > stranded {
			t.Errorf("stranded leader advanced commit %d -> %d during partition", stranded, got)
		}
		// Heal and converge: everyone agrees on one directory.
		for p.Now() < healAt {
			p.Sleep(50 * time.Millisecond)
		}
		p.Sleep(time.Second)
		want := cl.Servers[maj].RaftStatus().Commit
		for i, r := range cl.Servers {
			if got := r.RaftStatus().Commit; got != want {
				t.Errorf("replica %d commit = %d, want %d", i, got, want)
			}
		}
		names, err := c.List()
		if err != nil || len(names) != 2 || names[0] != "before" || names[1] != "during" {
			t.Fatalf("List = %v, %v; want [before during]", names, err)
		}
	})
}

// TestReplicatedDedupAcrossFailover checks exactly-once semantics through
// the replicated op table: a retransmitted mutation that already committed
// is answered from the replicated record, not re-executed — even when the
// retry lands on a different replica after a leader change.
func TestReplicatedDedupAcrossFailover(t *testing.T) {
	withCluster(t, repCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		for i := 0; i < 4; i++ {
			if err := c.SeqWrite("f", payload(i)); err != nil {
				t.Fatalf("SeqWrite %d: %v", i, err)
			}
		}
		// Hand-retransmit the last committed write with its original op
		// id: the server must detect the duplicate and not append again.
		lead := awaitLeader(t, p, cl)
		addr := cl.Servers[lead].Addr()
		body := SeqWriteReq{OpID: c.nextOp, Name: "f", Data: payload(3)}
		m, err := c.callAt(addr, body)
		if err != nil {
			t.Fatalf("retransmit: %v", err)
		}
		resp := m.Body.(SeqWriteResp)
		if !resp.OK() {
			t.Fatalf("retransmit answered %q", resp.Detail())
		}
		if meta, err := c.Stat("f"); err != nil || meta.Blocks != 4 {
			t.Fatalf("Stat = %+v, %v; want 4 blocks (dedup failed)", meta, err)
		}
	})
}

package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bridge/internal/distrib"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// scatterScript drives seeded random scatters — reads, overwrites and
// appends over one to four files, two items on one file, out-of-range and
// unknown-name items — against files s0..s3, and the same items one at a
// time through ReadAt/WriteAt against their twins r0..r3. It fails the test
// on the first item whose outcome differs and returns the transcript.
//
// The one rule a one-at-a-time run does not have is the scatter's write
// admission: when any write item is invalid, no write of that scatter is
// applied. The script knows the files' sizes, so it knows which scatters
// are rejected; for those the reference issues only the invalid writes
// (which fail the same way and change nothing) and the reads.
func scatterScript(t *testing.T, c *Client, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const files = 4
	var sizes [files]int64
	for f := 0; f < files; f++ {
		for _, name := range []string{fmt.Sprintf("s%d", f), fmt.Sprintf("r%d", f)} {
			if _, err := c.CreateSpec(name, distrib.Spec{Start: f}, false); err != nil {
				t.Errorf("create %s: %v", name, err)
				return nil
			}
		}
	}
	var seen []string
	rejected, admitted, serial := 0, 0, 0
	for round := 0; round < 60; round++ {
		n := 1 + rng.Intn(6)
		span := 1 + rng.Intn(files) // how many files this scatter touches
		items := make([]ScatterItem, n)
		file := make([]int, n) // -1: a name the directory does not hold
		invalid := make([]bool, n)
		virt := sizes
		reject := false
		for i := range items {
			f := rng.Intn(span)
			if i > 0 && rng.Intn(3) == 0 {
				f = file[rng.Intn(i)] // a second item on a file already in the scatter
			}
			if rng.Intn(12) == 0 {
				f = -1
			}
			file[i] = f
			it := &items[i]
			it.Name, it.Write = "ghost", rng.Intn(2) == 0
			size := int64(0)
			if f >= 0 {
				it.Name, size = fmt.Sprintf("s%d", f), virt[f]
			}
			switch pick := rng.Intn(10); {
			case pick == 0:
				it.BlockNum = size + 2 // out of range for a read and a write alike
			case pick < 5 || size == 0:
				it.BlockNum = size // append, or a read at EOF
			default:
				it.BlockNum = rng.Int63n(size)
			}
			if !it.Write {
				continue
			}
			serial++
			it.Data = payload(serial)
			if rng.Intn(15) == 0 {
				it.Data = make([]byte, PayloadBytes+1)
			}
			switch {
			case f < 0 || it.BlockNum > size || len(it.Data) > PayloadBytes:
				invalid[i], reject = true, true
			case it.BlockNum == size:
				virt[f]++
			}
		}
		res, err := c.Scatter(items)
		if err != nil {
			t.Errorf("round %d: scatter: %v", round, err)
			return seen
		}
		if reject {
			rejected++
		} else {
			admitted++
			sizes = virt
		}
		for i, it := range items {
			got, gotErr := res.At(i)
			var want []byte
			var wantErr error
			twin := "ghost"
			if file[i] >= 0 {
				twin = fmt.Sprintf("r%d", file[i])
			}
			switch {
			case !it.Write:
				want, wantErr = c.ReadAt(twin, it.BlockNum)
			case reject && !invalid[i]:
				wantErr = ErrSkipped
			default:
				wantErr = c.WriteAt(twin, it.BlockNum, it.Data)
			}
			line := fmt.Sprintf("round %d item %d %s@%d write=%v: %s %q", round, i, it.Name, it.BlockNum, it.Write, errClass(gotErr), head(got))
			seen = append(seen, line)
			if errClass(gotErr) != errClass(wantErr) || !bytes.Equal(got, want) {
				t.Errorf("%s\n one at a time: %s %q", line, errClass(wantErr), head(want))
				return seen
			}
		}
	}
	if rejected < 5 || admitted < 5 {
		t.Errorf("script ran %d rejected and %d admitted scatters; it must exercise both", rejected, admitted)
		return seen
	}
	for f := 0; f < files; f++ {
		var metas [2]Meta
		var blocks [2][][]byte
		for k, name := range []string{fmt.Sprintf("s%d", f), fmt.Sprintf("r%d", f)} {
			var err error
			if metas[k], err = c.Stat(name); err != nil {
				t.Errorf("stat %s: %v", name, err)
				return seen
			}
			if metas[k].Blocks > 0 {
				if blocks[k], err = c.ReadAtN(name, 0, int(metas[k].Blocks)); err != nil {
					t.Errorf("read %s: %v", name, err)
					return seen
				}
			}
		}
		if metas[0].Blocks != sizes[f] || metas[1].Blocks != sizes[f] {
			t.Errorf("file %d: scatter side %d blocks, one-at-a-time side %d, script %d", f, metas[0].Blocks, metas[1].Blocks, sizes[f])
		}
		if !reflect.DeepEqual(blocks[0], blocks[1]) {
			t.Errorf("file %d: contents differ between the scatter side and the one-at-a-time side", f)
		}
		seen = append(seen, fmt.Sprintf("file %d: %d blocks", f, metas[0].Blocks))
	}
	return seen
}

func head(b []byte) string {
	if len(b) > 16 {
		b = b[:16]
	}
	return string(bytes.TrimRight(b, "\x00"))
}

// TestScatterDifferential is test (a): a scatter is its items issued one at
// a time, at group sizes 1 and 3, with and without write-behind, and all
// four configurations show the client the same thing.
func TestScatterDifferential(t *testing.T) {
	var base []string
	for _, replicas := range []int{1, 3} {
		for _, wb := range []int{0, 2} {
			cfg := fastCfg(4)
			cfg.Replicas = replicas
			cfg.Server.WriteBehind = wb
			var seen []string
			withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
				seen = scatterScript(t, c, 1988)
			})
			if base == nil {
				base = seen
			} else if !reflect.DeepEqual(seen, base) {
				t.Errorf("Replicas=%d WriteBehind=%d: transcript differs from a plain group of one", replicas, wb)
			}
		}
	}
}

// scatterFaults is a message fault hook that loses or duplicates scatter
// requests and replies only, so every retransmission the test sees is the
// client's and every storage-node call runs exactly once.
type scatterFaults struct {
	rng       *rand.Rand
	drop, dup float64
}

func (f *scatterFaults) Deliver(_ time.Duration, _ msg.NodeID, _ msg.Addr, m *msg.Message) msg.Fate {
	switch m.Body.(type) {
	case ScatterReq, ScatterResp:
	default:
		return msg.Fate{}
	}
	drop, dup := f.rng.Float64() < f.drop, f.rng.Float64() < f.dup
	if drop {
		return msg.Fate{Drop: true}
	}
	if dup {
		return msg.Fate{Duplicates: 1}
	}
	return msg.Fate{}
}

// TestScatterExactlyOnceGroupOfOne is test (b) at group size 1: under
// seeded loss and duplication of scatter messages, with the client
// retransmitting, every write item lands exactly once, none is lost, and a
// retransmission is answered with the first reply.
func TestScatterExactlyOnceGroupOfOne(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		for _, name := range []string{"x", "y"} {
			if _, err := c.Create(name); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		cl.Net.SetFault(&scatterFaults{rng: rand.New(rand.NewSource(7)), drop: 0.2, dup: 0.2})
		c.SetTimeout(200 * time.Millisecond)
		c.SetRetry(RetryPolicy{Attempts: 12, Seed: 7})
		const n = 40
		for i := 0; i < n; i++ {
			res, err := c.Scatter([]ScatterItem{
				{Name: "x", BlockNum: int64(i), Write: true, Data: payload(i)},
				{Name: "y", BlockNum: int64(i), Write: true, Data: payload(1000 + i)},
			})
			if err != nil || res != nil {
				t.Errorf("scatter %d: results %v, %v; want every write landed", i, res, err)
				return
			}
		}
		cl.Net.SetFault(nil)
		p.Sleep(time.Second) // let duplicates still in flight arrive
		srv := cl.Servers[0]
		if srv.nextLFSOp != 2*n {
			t.Errorf("the server started %d storage-node writes for %d write items", srv.nextLFSOp, 2*n)
		}
		retries, hits := c.retries.Value(), srv.m.dedupHits.Value()
		if retries == 0 || hits == 0 {
			t.Errorf("%d client retransmissions, %d answered from the session: the seed must exercise both", retries, hits)
		}
		for k, name := range []string{"x", "y"} {
			blocks, err := c.ReadAtN(name, 0, n+1)
			if err != nil || len(blocks) != n {
				t.Errorf("%s: %d blocks, %v; want %d", name, len(blocks), err, n)
				return
			}
			for i, b := range blocks {
				if !bytes.Equal(b, payload(1000*k+i)) {
					t.Errorf("%s block %d holds %q", name, i, head(b))
				}
			}
		}
		// A retransmission gets the first reply: a mixed scatter's read
		// answer comes back from the client's session even after another
		// client changed the block. (The client itself sends nothing in
		// between: its next operation would make the copy stale.)
		req := ScatterReq{OpID: c.opID(), Items: []ScatterItem{
			{Name: "x", BlockNum: 0},
			{Name: "y", BlockNum: 0, Write: true, Data: payload(77)},
		}}
		c.nextOp += uint64(len(req.Items))
		first, err := c.call(req)
		if err != nil {
			t.Errorf("mixed scatter: %v", err)
			return
		}
		other := cl.NewClient(p, 0, "other")
		defer other.Close()
		if err := other.WriteAt("x", 0, payload(78)); err != nil {
			t.Errorf("WriteAt: %v", err)
			return
		}
		again, err := c.call(req)
		if err != nil || !reflect.DeepEqual(again.Body, first.Body) {
			t.Errorf("retransmission answered %+v, %v; the first reply was %+v", again.Body, err, first.Body)
		}
		if srv.nextLFSOp != 2*n+2 {
			t.Errorf("the retransmission ran again: %d storage-node writes, want %d (the scatter's and the other client's)", srv.nextLFSOp, 2*n+2)
		}
	})
}

// killAtLanding kills the leader the moment it starts the first
// storage-node write of a scatter, and loses that write: the item is
// committed and never lands.
type killAtLanding struct {
	cl   *Cluster
	hits int
}

func (k *killAtLanding) Deliver(now time.Duration, from msg.NodeID, _ msg.Addr, m *msg.Message) msg.Fate {
	if k.hits > 0 {
		return msg.Fate{}
	}
	lead := k.cl.LeaderServer(0)
	if lead < 0 || k.cl.Servers[lead].Addr().Node != from {
		return msg.Fate{}
	}
	if _, landing := m.Body.(lfs.WriteReq); !landing {
		return msg.Fate{}
	}
	k.hits++
	k.cl.CrashServer(0, lead, now)
	return msg.Fate{Drop: true}
}

// TestScatterExactlyOnceAcrossFailover is test (b) at group size 3: the
// leader dies between committing a scatter's first write and landing it.
// The client's retransmission reaches the successor, whose takeover made
// the committed write real; that item is answered from the op table, not
// applied again, and the item that never committed is applied once.
func TestScatterExactlyOnceAcrossFailover(t *testing.T) {
	withCluster(t, repCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		for _, name := range []string{"x", "y"} {
			if _, err := c.Create(name); err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if err := c.WriteAt(name, 0, payload(0)); err != nil {
				t.Errorf("WriteAt: %v", err)
				return
			}
		}
		hook := &killAtLanding{cl: cl}
		cl.Net.SetFault(hook)
		m := cl.Servers[awaitLeader(t, p, cl)].grp.rm
		heals := m.heals.Value()
		res, err := c.Scatter([]ScatterItem{
			{Name: "x", BlockNum: 1, Write: true, Data: payload(1)},
			{Name: "y", BlockNum: 1, Write: true, Data: payload(2)},
			{Name: "x", BlockNum: 0},
		})
		if err != nil {
			t.Errorf("scatter across the failover: %v", err)
			return
		}
		if hook.hits != 1 {
			t.Errorf("the leader was killed %d times, want once", hook.hits)
			return
		}
		for i := 0; i < 2; i++ {
			if _, err := res.At(i); err != nil {
				t.Errorf("write item %d: %v", i, err)
			}
		}
		if data, err := res.At(2); err != nil || !bytes.Equal(data, payload(0)) {
			t.Errorf("read item: %q, %v", head(data), err)
		}
		if m.heals.Value() == heals {
			t.Errorf("no write item was answered from the op table; the dead leader committed at least x's")
		}
		// However the two items split between the dead leader and its
		// successor, the log holds each exactly once.
		srv := cl.Servers[awaitLeader(t, p, cl)]
		committed := map[string]int{}
		for _, e := range srv.grp.node.CommittedSince(srv.grp.node.Status().SnapIndex) {
			if e.Data == nil {
				continue
			}
			op, err := decodeRop(e.Data, srv.grp.ports)
			if err != nil {
				t.Errorf("log entry %d: %v", e.Index, err)
				return
			}
			if op.Kind == ropWrite && op.At == 1 {
				committed[op.Name]++
			}
		}
		if committed["x"] != 1 || committed["y"] != 1 {
			t.Errorf("write entries in the log: %v, want x and y once each", committed)
		}
		for k, name := range []string{"x", "y"} {
			blocks, err := c.ReadAtN(name, 0, 4)
			if err != nil || len(blocks) != 2 || !bytes.Equal(blocks[1], payload(k+1)) {
				t.Errorf("%s after the failover: %d blocks, %v", name, len(blocks), err)
			}
		}
	})
}

// TestScatterOverlap is test (c): on 15 ms disks a scatter costs one disk
// access, not one per item.
func TestScatterOverlap(t *testing.T) {
	cfg := wrenCfg(8)
	cfg.Node.EFS.CacheBlocks = 1 // reads go to the disk
	withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
		const files = 7
		var reads []ScatterItem
		for f := 0; f < files; f++ {
			name := fmt.Sprintf("f%d", f)
			if _, err := c.CreateSpec(name, distrib.Spec{Start: f}, false); err != nil {
				t.Errorf("create: %v", err)
				return
			}
			for b := 0; b < 2; b++ {
				if err := c.WriteAt(name, int64(b), payload(b)); err != nil {
					t.Errorf("WriteAt: %v", err)
					return
				}
			}
			reads = append(reads, ScatterItem{Name: name, BlockNum: 0})
		}
		timed := func(fn func() error) time.Duration {
			start := p.Now()
			if err := fn(); err != nil {
				t.Errorf("timed call: %v", err)
				return 0
			}
			return p.Now() - start
		}
		oneWrite := timed(func() error { return c.WriteAt("f0", 0, payload(9)) })
		twoWrites := timed(func() error {
			_, err := c.Scatter([]ScatterItem{
				{Name: "f1", BlockNum: 0, Write: true, Data: payload(9)},
				{Name: "f2", BlockNum: 0, Write: true, Data: payload(9)},
			})
			return err
		})
		if oneWrite < 15*time.Millisecond || float64(twoWrites) >= 1.1*float64(oneWrite) {
			t.Errorf("a 2-file write scatter took %v, one WriteAt %v; want under 1.1x", twoWrites, oneWrite)
		}
		oneRead := timed(func() error { _, err := c.ReadAt("f0", 1); return err })
		sevenReads := timed(func() error {
			res, err := c.Scatter(reads)
			for i := range reads {
				if data, ierr := res.At(i); err == nil && (ierr != nil || len(data) == 0) {
					err = fmt.Errorf("item %d: %d bytes, %v", i, len(data), ierr)
				}
			}
			return err
		})
		if oneRead < 15*time.Millisecond || sevenReads >= 2*oneRead {
			t.Errorf("a 7-file read scatter took %v, one ReadAt %v; want under 2x", sevenReads, oneRead)
		}
	})
}

// failOn fails storage node index node the moment the server sends it a
// message match accepts, and loses that message: the call is in flight to
// a node that will never answer.
type failOn struct {
	cl    *Cluster
	node  int
	match func(body any) bool
	done  bool
}

func (f *failOn) Deliver(_ time.Duration, _ msg.NodeID, to msg.Addr, m *msg.Message) msg.Fate {
	if f.done || to.Node != f.cl.Nodes[f.node].ID || !f.match(m.Body) {
		return msg.Fate{}
	}
	f.done = true
	f.cl.FailNode(f.node)
	return msg.Fate{Drop: true}
}

func isLFSWrite(body any) bool { _, ok := body.(lfs.WriteReq); return ok }

// sameFile reports whether a file has exactly the given size and blocks.
func sameFile(c *Client, name string, want [][]byte) error {
	meta, err := c.Stat(name)
	if err != nil || meta.Blocks != int64(len(want)) {
		return fmt.Errorf("%s: %d blocks, %v; want %d", name, meta.Blocks, err, len(want))
	}
	for i, w := range want {
		if got, err := c.ReadAt(name, int64(i)); err != nil || !bytes.Equal(got, w) {
			return fmt.Errorf("%s block %d: %q, %v", name, i, head(got), err)
		}
	}
	return nil
}

// TestScatterRejectedTouchesNothing is test (d): a write item that cannot
// start — invalid at either group size, or aimed at a node already declared
// dead — rejects every write of its scatter before anything is committed.
// The other files are size- and byte-identical afterwards; reads in the
// same scatter are served regardless.
func TestScatterRejectedTouchesNothing(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		cfg := fastCfg(4)
		cfg.Replicas = replicas
		withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
			for _, name := range []string{"x", "y"} {
				if _, err := c.Create(name); err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if err := c.WriteAt(name, 0, payload(0)); err != nil {
					t.Errorf("WriteAt: %v", err)
					return
				}
			}
			var proposals int64
			if replicas > 1 {
				proposals = cl.Servers[awaitLeader(t, p, cl)].grp.rm.proposals.Value()
			}
			res, err := c.Scatter([]ScatterItem{
				{Name: "x", BlockNum: 1, Write: true, Data: payload(1)},
				{Name: "x", BlockNum: 0, Write: true, Data: payload(2)},
				{Name: "y", BlockNum: 5, Write: true, Data: payload(3)},
				{Name: "x", BlockNum: 0},
			})
			if err != nil {
				t.Errorf("Replicas=%d: scatter: %v", replicas, err)
				return
			}
			for i, want := range []error{ErrSkipped, ErrSkipped, ErrBadArg, nil} {
				if _, err := res.At(i); !errors.Is(err, want) || (want == nil && err != nil) {
					t.Errorf("Replicas=%d item %d: %v, want %v", replicas, i, err, want)
				}
			}
			if data, _ := res.At(3); !bytes.Equal(data, payload(0)) {
				t.Errorf("Replicas=%d: the read beside the rejected writes returned %q", replicas, head(data))
			}
			for _, name := range []string{"x", "y"} {
				if err := sameFile(c, name, [][]byte{payload(0)}); err != nil {
					t.Errorf("Replicas=%d: after the rejected scatter: %v", replicas, err)
				}
			}
			if replicas > 1 {
				if got := cl.Servers[awaitLeader(t, p, cl)].grp.rm.proposals.Value() - proposals; got != 0 {
					t.Errorf("the rejected scatter proposed %d log entries", got)
				}
			}
		})
	}
	// A node already declared dead.
	cfg := fastCfg(4)
	cfg.Server.Health = &HealthConfig{}
	withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
		for f, name := range []string{"x", "y"} {
			if _, err := c.CreateSpec(name, distrib.Spec{Start: f}, false); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		cl.FailNode(0)
		p.Sleep(6 * time.Second)
		res, err := c.Scatter([]ScatterItem{
			{Name: "x", BlockNum: 0, Write: true, Data: payload(1)}, // node 0, dead
			{Name: "y", BlockNum: 0, Write: true, Data: payload(2)}, // node 1
		})
		if err != nil {
			t.Errorf("scatter: %v", err)
			return
		}
		if _, err := res.At(0); !errors.Is(err, ErrNodeDown) {
			t.Errorf("write to the dead node: %v, want ErrNodeDown", err)
		}
		if _, err := res.At(1); !errors.Is(err, ErrSkipped) {
			t.Errorf("write beside it: %v, want ErrSkipped", err)
		}
	})
	// A node that dies with the write in flight fails that item alone.
	withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
		for f, name := range []string{"x", "y"} {
			if _, err := c.CreateSpec(name, distrib.Spec{Start: f}, false); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		cl.Net.SetFault(&failOn{cl: cl, node: 0, match: isLFSWrite})
		res, err := c.Scatter([]ScatterItem{
			{Name: "x", BlockNum: 0, Write: true, Data: payload(1)}, // node 0
			{Name: "y", BlockNum: 0, Write: true, Data: payload(2)}, // node 1
		})
		if err != nil {
			t.Errorf("scatter: %v", err)
			return
		}
		if _, err := res.At(0); !errors.Is(err, ErrNodeDown) {
			t.Errorf("write in flight to the dying node: %v, want ErrNodeDown", err)
		}
		if _, err := res.At(1); err != nil {
			t.Errorf("write beside it: %v, want it landed", err)
		}
		if data, err := c.ReadAt("y", 0); err != nil || !bytes.Equal(data, payload(2)) {
			t.Errorf("y block 0 after the scatter: %q, %v", head(data), err)
		}
		// Outcome unknown: the append's size was taken back.
		if _, err := c.ReadAt("x", 0); !errors.Is(err, ErrEOF) {
			t.Errorf("x block 0 after the abandoned append: %v, want ErrEOF", err)
		}
	})
}

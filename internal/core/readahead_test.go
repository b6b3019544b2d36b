package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/sim"
)

// raCfg is a fast cluster with the server read-ahead cache on.
func raCfg(p, stripes int) ClusterConfig {
	cfg := fastCfg(p)
	cfg.Server = Config{ReadAhead: stripes}
	return cfg
}

// A second client's writes and deletes must never let the first client's
// read-ahead buffer serve stale data: every mutation invalidates the
// file's windows (buffered and in-flight) before any block changes.
func TestReadAheadNeverServesStaleData(t *testing.T) {
	withCluster(t, raCfg(4, 2), func(p sim.Proc, cl *Cluster, a *Client) {
		b := cl.NewClient(p, 0, "ra-cli-b")
		defer b.Close()
		const n = 40
		if _, err := a.Create("f"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		for i := 0; i < n; i++ {
			if err := a.SeqWrite("f", payload(i)); err != nil {
				t.Fatalf("SeqWrite %d: %v", i, err)
			}
		}

		// A warms its window (blocks 0..7 buffered, 8..15 prefetching).
		if _, err := a.Open("f"); err != nil {
			t.Fatalf("Open: %v", err)
		}
		for i := 0; i < 4; i++ {
			data, eof, err := a.SeqRead("f")
			if err != nil || eof || !bytes.Equal(data, payload(i)) {
				t.Fatalf("warm read %d: eof=%v err=%v", i, eof, err)
			}
		}

		// B overwrites a block in A's buffered window, one in its
		// in-flight prefetch, and one beyond both.
		fresh := map[int]int{5: 105, 10: 110, 20: 120}
		for _, blk := range []int{5, 10, 20} {
			if err := b.WriteAt("f", int64(blk), payload(fresh[blk])); err != nil {
				t.Fatalf("WriteAt %d: %v", blk, err)
			}
		}

		// A's remaining reads must all reflect B's writes.
		for i := 4; i < n; i++ {
			want := payload(i)
			if pay, hit := fresh[i]; hit {
				want = payload(pay)
			}
			data, eof, err := a.SeqRead("f")
			if err != nil || eof {
				t.Fatalf("read %d: eof=%v err=%v", i, eof, err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("block %d: read-ahead served stale data", i)
			}
		}

		// Batched path: A re-opens and reads a batch (rewarming the
		// cache), B overwrites mid-stream, A's next batch must be fresh.
		if _, err := a.Open("f"); err != nil {
			t.Fatalf("reopen: %v", err)
		}
		got, _, err := a.SeqReadN("f", 8)
		if err != nil || len(got) != 8 {
			t.Fatalf("SeqReadN warm: %d blocks, %v", len(got), err)
		}
		if err := b.WriteAt("f", 12, payload(212)); err != nil {
			t.Fatalf("WriteAt 12: %v", err)
		}
		fresh[12] = 212
		pos := 8
		for pos < n {
			batch, eof, err := a.SeqReadN("f", 8)
			if err != nil {
				t.Fatalf("SeqReadN at %d: %v", pos, err)
			}
			for _, data := range batch {
				want := payload(pos)
				if pay, hit := fresh[pos]; hit {
					want = payload(pay)
				}
				if !bytes.Equal(data, want) {
					t.Fatalf("batched block %d: stale data", pos)
				}
				pos++
			}
			if eof {
				break
			}
		}
		if pos != n {
			t.Fatalf("batched read covered %d of %d blocks", pos, n)
		}

		// Delete + recreate under a warmed cache: A must see the new
		// file's content, never the old one's.
		if _, err := a.Open("f"); err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if _, _, err := a.SeqRead("f"); err != nil {
			t.Fatalf("rewarm: %v", err)
		}
		if _, err := b.Delete("f"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, err := b.Create("f"); err != nil {
			t.Fatalf("recreate: %v", err)
		}
		const m = 6
		for i := 0; i < m; i++ {
			if err := b.SeqWrite("f", payload(1000+i)); err != nil {
				t.Fatalf("rewrite %d: %v", i, err)
			}
		}
		if _, err := a.Open("f"); err != nil {
			t.Fatalf("open new f: %v", err)
		}
		for i := 0; i < m; i++ {
			data, eof, err := a.SeqRead("f")
			if err != nil || eof {
				t.Fatalf("new read %d: eof=%v err=%v", i, eof, err)
			}
			if !bytes.Equal(data, payload(1000+i)) {
				t.Fatalf("block %d of recreated file: stale data", i)
			}
		}

		// The cache must actually have been engaged for this test to
		// mean anything.
		stats := cl.Net.Stats()
		if stats.Get("bridge.ra_hits") == 0 {
			t.Error("no read-ahead hits recorded; cache never engaged")
		}
		if stats.Get("bridge.ra_invalidations") == 0 {
			t.Error("no read-ahead invalidations recorded")
		}
	})
}

// A read-ahead window prefetched before silent corruption lands must be
// invalidated when read-repair rewrites the block: the repair write goes
// through the ordinary writeAt path, whose invalidation covers buffered and
// in-flight windows alike. The "repair" here is exactly what the replica
// layer's read-repair does under the hood — a WriteAt of the recovered copy
// — issued with distinct bytes so serving the stale window is observable.
func TestReadAheadInvalidatedByReadRepair(t *testing.T) {
	withCluster(t, raCfg(4, 2), func(p sim.Proc, cl *Cluster, a *Client) {
		b := cl.NewClient(p, 0, "rr-cli-b")
		defer b.Close()
		const n = 24
		if _, err := a.Create("f"); err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		for i := 0; i < n; i++ {
			if err := a.SeqWrite("f", payload(i)); err != nil {
				t.Errorf("SeqWrite %d: %v", i, err)
				return
			}
		}
		// A warms its window: blocks 0..7 buffered, 8..15 prefetching.
		if _, err := a.Open("f"); err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		for i := 0; i < 4; i++ {
			data, eof, err := a.SeqRead("f")
			if err != nil || eof || !bytes.Equal(data, payload(i)) {
				t.Errorf("warm read %d: eof=%v err=%v", i, eof, err)
				return
			}
		}
		// Silent bitrot lands on the medium AFTER the window was prefetched:
		// global block 5 is node 1's second data-region arrival (node 1
		// receives blocks 1, 5, 9, ... in write order).
		node := cl.Nodes[1]
		phys := node.FS().DataStart() + 1
		raw, err := node.Disk.ReadBlock(p, phys)
		if err != nil {
			t.Errorf("raw read: %v", err)
			return
		}
		raw[200] ^= 0x04
		if err := node.Disk.WriteBlock(p, phys, raw); err != nil {
			t.Errorf("raw write: %v", err)
			return
		}
		// A scrub sweep confirms the corruption and drops the node's cached
		// (clean) copy, so reads now verify against the medium.
		rep, err := b.Scrub(1)
		if err != nil {
			t.Errorf("Scrub: %v", err)
			return
		}
		if len(rep.Errors) != 1 {
			t.Errorf("scrub found %d errors, want 1: %+v", len(rep.Errors), rep.Errors)
			return
		}
		// The unreplicated read fails fast, naming the node and block.
		if _, err := b.ReadAt("f", 5); !errors.Is(err, ErrCorrupt) {
			t.Errorf("ReadAt corrupt block: %v; want ErrCorrupt", err)
			return
		} else if !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), "global block 5") {
			t.Errorf("corrupt read error %q does not name node and block", err)
			return
		}
		// Read-repair rewrites the block in place.
		if err := b.WriteAt("f", 5, payload(505)); err != nil {
			t.Errorf("repair WriteAt: %v", err)
			return
		}
		// A's remaining sequential reads must reflect the repair, even
		// though block 5 sat in A's window before the corruption hit.
		for i := 4; i < n; i++ {
			want := payload(i)
			if i == 5 {
				want = payload(505)
			}
			data, eof, err := a.SeqRead("f")
			if err != nil || eof {
				t.Errorf("read %d: eof=%v err=%v", i, eof, err)
				return
			}
			if !bytes.Equal(data, want) {
				t.Errorf("block %d: read-ahead served the pre-repair window", i)
				return
			}
		}
		stats := cl.Net.Stats()
		if stats.Get("bridge.ra_hits") == 0 {
			t.Error("no read-ahead hits recorded; cache never engaged")
		}
		if stats.Get("bridge.ra_invalidations") == 0 {
			t.Error("no read-ahead invalidations recorded")
		}
	})
}

// Sequential reads through the cache must also work with several files and
// interleaved cursors, and the stats must show the windows doing the work.
func TestReadAheadBatchedRoundTrip(t *testing.T) {
	withCluster(t, raCfg(4, 2), func(p sim.Proc, cl *Cluster, c *Client) {
		const n = 30
		for f := 0; f < 2; f++ {
			name := fmt.Sprintf("g%d", f)
			if _, err := c.Create(name); err != nil {
				t.Fatalf("Create %s: %v", name, err)
			}
			for i := 0; i < n; i++ {
				if err := c.SeqWrite(name, payload(f*100+i)); err != nil {
					t.Fatalf("SeqWrite: %v", err)
				}
			}
		}
		// Interleave batched reads of the two files.
		pos := [2]int{}
		for pos[0] < n || pos[1] < n {
			for f := 0; f < 2; f++ {
				if pos[f] >= n {
					continue
				}
				name := fmt.Sprintf("g%d", f)
				blocks, _, err := c.SeqReadN(name, 5)
				if err != nil {
					t.Fatalf("SeqReadN %s at %d: %v", name, pos[f], err)
				}
				for _, data := range blocks {
					if !bytes.Equal(data, payload(f*100+pos[f])) {
						t.Fatalf("%s block %d corrupt", name, pos[f])
					}
					pos[f]++
				}
			}
		}
		if hits := cl.Net.Stats().Get("bridge.ra_hits"); hits == 0 {
			t.Error("interleaved batched reads recorded no read-ahead hits")
		}
	})
}

// raProgram is a seeded program over two files: two sequential readers
// using SeqRead and SeqReadN with batches below, equal to and above the
// window (4 and 8 blocks at ReadAhead 1 and 2 on four nodes), Open rewinds,
// and a third client doing WriteAt, AppendN, Delete and re-Create. Every
// reader then reads both files to the end. It returns what the clients
// saw, one line per call.
func raProgram(p sim.Proc, cl *Cluster, a *Client, seed int64) []string {
	var seen []string
	log := func(format string, args ...any) { seen = append(seen, fmt.Sprintf(format, args...)) }
	read := func(what string, bs [][]byte, eof bool, err error) {
		heads := make([]string, len(bs))
		for i, b := range bs {
			heads[i] = head(b)
		}
		log("%s: %s eof=%v %v", what, errClass(err), eof, heads)
	}
	b := cl.NewClient(p, 0, "ra-diff-b")
	defer b.Close()
	w := cl.NewClient(p, 0, "ra-diff-w")
	defer w.Close()
	readers := []*Client{a, b}
	files := []string{"f", "g"}
	next := 0
	appendN := func(name string, n int) {
		blocks := make([][]byte, n)
		for i := range blocks {
			blocks[i] = payload(next)
			next++
		}
		got, err := w.AppendN(name, blocks)
		log("appendn %s %d: %s %d", name, n, errClass(err), got)
	}
	for _, f := range files {
		_, err := w.Create(f)
		log("create %s: %s", f, errClass(err))
		appendN(f, 40)
	}
	rng := rand.New(rand.NewSource(seed))
	batches := []int{3, 4, 5, 8, 13, 21}
	for i := 0; i < 300; i++ {
		if ra := cl.Servers[0].ra; ra != nil {
			for _, k := range ra.order {
				if err := raContiguous(ra.entries[k]); err != nil {
					log("call %d: %s's entry for %s: %v", i, k.client.Port, k.name, err)
				}
			}
		}
		ri, f := rng.Intn(len(readers)), files[rng.Intn(len(files))]
		r := readers[ri]
		switch k := rng.Intn(20); {
		case k < 6:
			data, eof, err := r.SeqRead(f)
			var bs [][]byte
			if data != nil {
				bs = [][]byte{data}
			}
			read(fmt.Sprintf("r%d seqread %s", ri, f), bs, eof, err)
		case k < 12:
			n := batches[rng.Intn(len(batches))]
			bs, eof, err := r.SeqReadN(f, n)
			read(fmt.Sprintf("r%d seqreadn %s %d", ri, f, n), bs, eof, err)
		case k < 14:
			m, err := r.Open(f)
			log("r%d open %s: %s blocks=%d", ri, f, errClass(err), m.Blocks)
		case k < 16:
			m, _ := w.Stat(f)
			at := rng.Int63n(m.Blocks + 2)
			err := w.WriteAt(f, at, payload(next))
			next++
			log("writeat %s %d: %s", f, at, errClass(err))
		case k < 19:
			appendN(f, 1+rng.Intn(12))
		default:
			_, err := w.Delete(f)
			log("delete %s: %s", f, errClass(err))
			if rng.Intn(2) == 0 {
				_, err := w.Create(f)
				log("create %s: %s", f, errClass(err))
				appendN(f, rng.Intn(30))
			}
		}
	}
	for ri, r := range readers {
		for _, f := range files {
			for {
				bs, eof, err := r.SeqReadN(f, 16)
				read(fmt.Sprintf("r%d drain %s", ri, f), bs, eof, err)
				if eof || err != nil {
					break
				}
			}
		}
	}
	return seen
}

// raContiguous checks that an entry's windows in flight continue its
// buffered window without a gap or an overlap, up to its next block. Every
// rewind, miss and failed fill must drop the windows it leaves behind.
func raContiguous(e *raEntry) error {
	if e.st.Windows() == 0 {
		return nil
	}
	at := e.start + int64(len(e.blocks))
	for i := 0; i < e.st.Windows(); i++ {
		start, count := e.st.Window(i)
		if start != at {
			return fmt.Errorf("a window in flight at %d, want %d", start, at)
		}
		at += int64(count)
	}
	if at != e.next {
		return fmt.Errorf("windows in flight end at %d, next is %d", at, e.next)
	}
	return nil
}

// TestReadAheadDifferential runs raProgram at ReadAhead 0, 1 and 2. The
// cache may change timing only, so every setting must return the same
// bytes, EOFs and errors; and once every reader has stopped at the end of
// the file or been invalidated, nothing the cache started may be left
// parked in the server's LFS client.
func TestReadAheadDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		var base []string
		for _, stripes := range []int{0, 1, 2} {
			cfg := wrenCfg(4)
			cfg.Server.ReadAhead = stripes
			var seen []string
			withCluster(t, cfg, func(p sim.Proc, cl *Cluster, a *Client) {
				seen = raProgram(p, cl, a, seed)
				if stripes == 0 {
					return
				}
				st := cl.Net.Stats()
				for _, name := range []string{"bridge.ra_hits", "bridge.ra_misses", "bridge.ra_fills", "bridge.ra_invalidations"} {
					if st.Get(name) == 0 {
						t.Errorf("seed %d ReadAhead=%d: %s is 0; the program never exercised it", seed, stripes, name)
					}
				}
				p.Sleep(time.Second) // anything still on its way arrives
				if pending, _ := cl.Servers[0].lc.C.Parked(); pending != 0 {
					t.Errorf("seed %d ReadAhead=%d: %d replies parked in the server's LFS client", seed, stripes, pending)
				}
				if n := len(cl.Servers[0].ra.order); n > raEntryCap {
					t.Errorf("seed %d ReadAhead=%d: %d keys in the eviction order", seed, stripes, n)
				}
			})
			if stripes == 0 {
				base = seen
				continue
			}
			for i := range base {
				if i >= len(seen) || seen[i] != base[i] {
					got := "<nothing>"
					if i < len(seen) {
						got = seen[i]
					}
					t.Errorf("seed %d ReadAhead=%d diverges from no read-ahead at call %d:\n got  %s\n want %s", seed, stripes, i, got, base[i])
					break
				}
			}
		}
	}
}

// TestReadAheadStaysAhead pins the pipeline's payoff on stream_read's shape:
// a steady sequential reader of 32-block windows over eight nodes, from a
// file far larger than the nodes' caches. The cold first request fetches one
// window; every later fetch is a run of raRun windows, one call per node, so
// a run of two costs each node one 15 ms track read. Each run is started
// raDepth runs before it is read, after the reply that queued it, so from the
// third request on no fill waits for a reply: a request's server time is
// exactly OpCPU, the reply's send and a whole number of receives (a run's
// replies may be taken off the port while the server gathers the one before),
// and the requests receive no more replies than the runs they read. The
// post-reply step, a server.prefetch span under the request with the LFS
// calls under it, is exactly one send per node per run.
func TestReadAheadStaysAhead(t *testing.T) {
	const nodes, window, windows = 8, 32, 48 // 192 blocks a node, 128 cached
	cfg := wrenCfg(nodes)
	cfg.Server.ReadAhead = window / nodes
	withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		for i := 0; i < windows; i++ {
			blocks := make([][]byte, window)
			for j := range blocks {
				blocks[j] = payload(i*window + j)
			}
			if _, err := c.AppendN("f", blocks); err != nil {
				t.Errorf("AppendN: %v", err)
				return
			}
		}
		if _, err := c.Open("f"); err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		rec := obs.NewRecorder(obs.Config{})
		cl.Net.SetRecorder(rec)
		defer cl.Net.SetRecorder(nil)
		for i := 0; i < windows; i++ {
			got, _, err := c.SeqReadN("f", window)
			if err != nil || len(got) != window || !bytes.Equal(got[0], payload(i*window)) {
				t.Errorf("SeqReadN %d: %d blocks, %v", i, len(got), err)
				return
			}
		}
		net := msg.DefaultConfig()
		fixed := 500*time.Microsecond + net.SendCPU // OpCPU and the reply
		kinds := map[obs.SpanID]string{}
		var reqs, prefetches []obs.Span
		for _, sp := range rec.Spans() {
			kinds[sp.ID] = sp.Kind
			switch sp.Kind {
			case "server.seqreadn":
				reqs = append(reqs, sp)
			case "server.prefetch":
				prefetches = append(prefetches, sp)
			}
		}
		if len(reqs) != windows {
			t.Errorf("%d server.seqreadn spans, want %d", len(reqs), windows)
			return
		}
		var received time.Duration
		for i, sp := range reqs[2:] {
			d := sp.End - sp.Start - fixed
			if d < 0 || d%net.RecvCPU != 0 {
				t.Errorf("request %d: the server took %v, %v more than OpCPU, a send and whole receives: it waited for a reply",
					i+2, sp.End-sp.Start, d%net.RecvCPU)
			}
			received += d
		}
		// The miss fetched window 0; runs carry the rest, and request 1
		// gathers the first of them.
		runs := (windows - 1 + raRun - 1) / raRun
		if want := time.Duration(nodes*(runs-1)) * net.RecvCPU; received > want {
			t.Errorf("requests 2 on spent %v receiving, more than the %v their runs' replies cost", received, want)
		}
		// The first request starts raDepth runs, every later one that fills
		// a run the one it consumed, until the file runs out.
		if want := runs - raDepth + 1; len(prefetches) != want {
			t.Errorf("%d server.prefetch spans, want %d", len(prefetches), want)
		}
		under := map[obs.SpanID]int{}
		for _, sp := range rec.Spans() {
			if kinds[sp.Parent] == "server.prefetch" && strings.HasPrefix(sp.Kind, "lfs.") {
				under[sp.Parent]++
			}
		}
		for i, sp := range prefetches {
			n := int64(raDepth)
			if i > 0 {
				n = 1
			}
			if kinds[sp.Parent] != "server.seqreadn" {
				t.Errorf("prefetch %d: parent is %q, want the request that queued it", i, kinds[sp.Parent])
			}
			if d := sp.End - sp.Start; d != time.Duration(n*nodes)*net.SendCPU {
				t.Errorf("prefetch %d took %v, want %d sends", i, d, n*nodes)
			}
			if under[sp.ID] != int(n*nodes) {
				t.Errorf("prefetch %d has %d LFS calls under it, want %d", i, under[sp.ID], n*nodes)
			}
		}
		if open := rec.OpenSpans(); open != 0 {
			t.Errorf("%d spans left open", open)
		}
	})
}

// TestReadAheadBatchPastTheWindow: a batch larger than the window waits
// for its first window only. Each later run it runs into is started before
// the one before it is gathered, so a cold 40-block SeqReadN over 4-block
// windows is one synchronous window and five prefetched runs (four of two
// windows, the last one the file's final window).
func TestReadAheadBatchPastTheWindow(t *testing.T) {
	withCluster(t, raCfg(4, 1), func(p sim.Proc, cl *Cluster, c *Client) {
		const n = 40
		if _, err := c.Create("f"); err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		for i := 0; i < n; i++ {
			if err := c.SeqWrite("f", payload(i)); err != nil {
				t.Errorf("SeqWrite %d: %v", i, err)
				return
			}
		}
		got, eof, err := c.SeqReadN("f", n)
		if err != nil || !eof || len(got) != n {
			t.Errorf("SeqReadN: %d blocks, eof=%v, %v", len(got), eof, err)
			return
		}
		for i, b := range got {
			if !bytes.Equal(b, payload(i)) {
				t.Errorf("block %d: %q", i, head(b))
			}
		}
		st := cl.Net.Stats()
		runs := (n/4 - 1 + raRun - 1) / raRun
		if misses, fills := st.Get("bridge.ra_misses"), st.Get("bridge.ra_fills"); misses != 4 || fills != int64(runs) {
			t.Errorf("%d blocks missed and %d runs filled; want 4 and %d", misses, fills, runs)
		}
	})
}

// raOnly is the one read-ahead entry a test's single reader has, or nil.
func raOnly(ra *raCache) *raEntry {
	if len(ra.order) != 1 {
		return nil
	}
	return ra.entries[ra.order[0]]
}

// TestReadAheadMutationDropsRunInFlight: a write, and then a delete, that
// land while a run of raRun windows is in flight drop it before any block is
// written. The reader is served the new bytes, never the run's, and every
// reply of the dropped calls is discarded on receipt, none left parked.
func TestReadAheadMutationDropsRunInFlight(t *testing.T) {
	const nodes, stripes = 4, 1
	const window = nodes * stripes
	cfg := wrenCfg(nodes) // 15 ms disks: a run is still in flight when the writer's request lands
	cfg.Server.ReadAhead = stripes
	withCluster(t, cfg, func(p sim.Proc, cl *Cluster, a *Client) {
		b := cl.NewClient(p, 0, "ra-run-b")
		defer b.Close()
		srv := cl.Servers[0]
		const n = 40
		if _, err := b.Create("f"); err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		blocks := make([][]byte, n)
		for i := range blocks {
			blocks[i] = payload(i)
		}
		if _, err := b.AppendN("f", blocks); err != nil {
			t.Errorf("AppendN: %v", err)
			return
		}
		// warm reads block 0 and waits out the post-reply top-up's sends: the
		// miss buffered one window, and raDepth runs are in flight behind it.
		warm := func(what string) bool {
			if _, err := a.Open("f"); err != nil {
				t.Errorf("%s: Open: %v", what, err)
				return false
			}
			if _, _, err := a.SeqRead("f"); err != nil {
				t.Errorf("%s: SeqRead: %v", what, err)
				return false
			}
			p.Sleep(5 * time.Millisecond)
			e := raOnly(srv.ra)
			if e == nil || e.st.Windows() != raDepth {
				t.Errorf("%s: no reader with %d runs in flight", what, raDepth)
				return false
			}
			if at, count := e.st.Window(0); at != window || count != raRun*window {
				t.Errorf("%s: the oldest run in flight is %d blocks from %d, want %d from %d", what, count, at, raRun*window, window)
				return false
			}
			return true
		}
		// drain reads blocks from up to to, each of which must be want(i).
		drain := func(what string, from, to int, want func(i int) []byte) {
			for i := from; i < to; i++ {
				data, _, err := a.SeqRead("f")
				if err != nil || !bytes.Equal(data, want(i)) {
					t.Errorf("%s: block %d is %q (%v), want %q", what, i, head(data), err, head(want(i)))
					return
				}
			}
		}

		if !warm("write") {
			return
		}
		// Block 6 is in the oldest run, block 14 in the one after it.
		fresh := map[int]int{6: 106, 14: 114}
		for _, blk := range []int{6, 14} {
			if err := b.WriteAt("f", int64(blk), payload(fresh[blk])); err != nil {
				t.Errorf("WriteAt %d: %v", blk, err)
				return
			}
		}
		if len(srv.ra.entries) != 0 {
			t.Errorf("the write left %d read-ahead entries", len(srv.ra.entries))
		}
		drain("after the write", 1, n, func(i int) []byte {
			if v, ok := fresh[i]; ok {
				return payload(v)
			}
			return payload(i)
		})

		if !warm("delete") {
			return
		}
		if _, err := b.Delete("f"); err != nil {
			t.Errorf("Delete: %v", err)
			return
		}
		if len(srv.ra.entries) != 0 {
			t.Errorf("the delete left %d read-ahead entries", len(srv.ra.entries))
		}
		if _, err := b.Create("f"); err != nil {
			t.Errorf("recreate: %v", err)
			return
		}
		const m = 24
		for i := range blocks[:m] {
			blocks[i] = payload(1000 + i)
		}
		if _, err := b.AppendN("f", blocks[:m]); err != nil {
			t.Errorf("AppendN: %v", err)
			return
		}
		if _, err := a.Open("f"); err != nil {
			t.Errorf("open the new f: %v", err)
			return
		}
		drain("after the delete", 0, m, func(i int) []byte { return payload(1000 + i) })

		p.Sleep(time.Second) // every dropped call's reply arrives
		if _, _, err := a.SeqRead("f"); err != nil {
			t.Errorf("read at the end: %v", err)
		}
		if pending, discarded := srv.lc.C.Parked(); pending != 0 || discarded != 0 {
			t.Errorf("%d replies parked and %d discarded calls unanswered in the server's LFS client", pending, discarded)
		}
		if got := cl.Net.Stats().Get("bridge.ra_invalidations"); got < 2 {
			t.Errorf("%d read-ahead invalidations, want the write's and the delete's", got)
		}
	})
}

// TestReadAheadMissFetchesOneWindow: a cold read and a rewind each wait for
// one window, fetched synchronously, and leave the longer runs to the
// prefetches behind it; a miss run would make the cold read wait for more.
func TestReadAheadMissFetchesOneWindow(t *testing.T) {
	const nodes, stripes = 4, 2
	const window = nodes * stripes
	withCluster(t, raCfg(nodes, stripes), func(p sim.Proc, cl *Cluster, c *Client) {
		const n = 64
		if _, err := c.Create("f"); err != nil {
			t.Errorf("Create: %v", err)
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
		st, ra := cl.Net.Stats(), cl.Servers[0].ra
		for _, what := range []string{"cold read", "rewind"} {
			if _, err := c.Open("f"); err != nil {
				t.Errorf("%s: Open: %v", what, err)
				return
			}
			misses := st.Get("bridge.ra_misses")
			if data, _, err := c.SeqRead("f"); err != nil || !bytes.Equal(data, payload(0)) {
				t.Errorf("%s: SeqRead: %q, %v", what, head(data), err)
				return
			}
			e := raOnly(ra)
			if e == nil {
				t.Errorf("%s: no read-ahead entry", what)
				return
			}
			if e.start != 0 || len(e.blocks) != window {
				t.Errorf("%s: the miss buffered %d blocks from %d, want one window of %d from 0", what, len(e.blocks), e.start, window)
				return
			}
			if got := st.Get("bridge.ra_misses") - misses; got != 1 {
				t.Errorf("%s: %d blocks missed, want 1", what, got)
			}
			// The batch runs through the buffered window into the first run.
			got, _, err := c.SeqReadN("f", 2*window)
			if err != nil || len(got) != 2*window || !bytes.Equal(got[0], payload(1)) {
				t.Errorf("%s: SeqReadN: %d blocks, %v", what, len(got), err)
				return
			}
			if e.start != window || len(e.blocks) != raRun*window {
				t.Errorf("%s: the fill buffered %d blocks from %d, want a run of %d from %d", what, len(e.blocks), e.start, raRun*window, window)
			}
		}
	})
}

// TestReadAheadOrderHoldsLiveKeysOnly: the FIFO eviction order names live
// entries only. Each round below reads (inserting the reader's entry),
// writes (invalidating it) and rewinds; when invalidation left the key in
// the order, every round added one, and 500 rounds left 0 entries behind
// 500 keys.
func TestReadAheadOrderHoldsLiveKeysOnly(t *testing.T) {
	withCluster(t, raCfg(4, 2), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		for i := 0; i < 8; i++ {
			if err := c.SeqWrite("f", payload(i)); err != nil {
				t.Errorf("SeqWrite: %v", err)
				return
			}
		}
		ra := cl.Servers[0].ra
		for i := 0; i < 10000; i++ {
			if _, _, err := c.SeqRead("f"); err != nil {
				t.Errorf("round %d: SeqRead: %v", i, err)
				return
			}
			if err := c.WriteAt("f", 0, payload(i)); err != nil {
				t.Errorf("round %d: WriteAt: %v", i, err)
				return
			}
			if _, err := c.Open("f"); err != nil {
				t.Errorf("round %d: Open: %v", i, err)
				return
			}
		}
		if len(ra.order) > raEntryCap || len(ra.order) != len(ra.entries) {
			t.Errorf("%d keys in the eviction order for %d entries; want one per entry, at most %d",
				len(ra.order), len(ra.entries), raEntryCap)
		}
	})
}

// TestReadAheadEvictsReinsertedKeyInItsPlace: a key invalidated and then
// inserted again is evicted from its new place at the back of the FIFO.
// (When the stale key stayed at the front, the first eviction at the cap
// took the newest live entry for that key instead of the oldest entry.)
func TestReadAheadEvictsReinsertedKeyInItsPlace(t *testing.T) {
	s := &Server{m: newSrvMetrics(obs.NewRegistry())}
	c := newRACache(1)
	key := func(format string, args ...any) raKey {
		return raKey{client: msg.Addr{Port: "cli"}, name: fmt.Sprintf(format, args...)}
	}
	cached := func(k raKey) bool { _, ok := c.entries[k]; return ok }
	c.insert(s, key("a"))
	c.invalidate(s, "a")
	for i := 0; i < raEntryCap-1; i++ {
		c.insert(s, key("b%d", i))
	}
	c.insert(s, key("a")) // the cache is full, a the newest entry
	for i := 0; i < raEntryCap-1; i++ {
		c.insert(s, key("c%d", i))
		if cached(key("b%d", i)) || !cached(key("a")) {
			t.Fatalf("insert %d past the cap: b%d cached %v, a cached %v; want b%d evicted and a kept",
				i, i, cached(key("b%d", i)), cached(key("a")), i)
		}
	}
	c.insert(s, key("d"))
	if cached(key("a")) || len(c.order) != raEntryCap {
		t.Errorf("a outlived its turn (%d keys in the order)", len(c.order))
	}
}

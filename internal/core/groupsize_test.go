package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"bridge/internal/distrib"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// errClass names the sentinel an error carries — what a client can test
// with errors.Is, and so what must not depend on the directory group size.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"ErrNotFound", ErrNotFound}, {"ErrExists", ErrExists}, {"ErrEOF", ErrEOF},
		{"ErrBadArg", ErrBadArg}, {"ErrNoJob", ErrNoJob}, {"ErrNotLeader", ErrNotLeader},
		{"ErrDeferredWrite", ErrDeferredWrite}, {"ErrLFSFailed", ErrLFSFailed},
		{"ErrSkipped", ErrSkipped},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "other: " + err.Error()
}

// groupScript drives every command that is legal at any group size through
// c and returns what the client saw, one line per call: bytes, sizes, EOF
// flags and error classes. flushed holds the write-behind drain counts,
// which legitimately depend on whether write-behind is on.
func groupScript(c *Client) (seen, flushed []string) {
	log := func(format string, args ...any) { seen = append(seen, fmt.Sprintf(format, args...)) }
	meta := func(what string, m Meta, err error) {
		log("%s: %s name=%q id=%d blocks=%d kind=%v p=%d nodes=%d",
			what, errClass(err), m.Name, m.FileID, m.Blocks, m.Spec.Kind, m.Spec.P, len(m.Nodes))
	}
	blocks := func(what string, bs [][]byte, eof bool, err error) {
		var heads []string
		for _, b := range bs {
			heads = append(heads, strings.TrimRight(string(b[:16]), "\x00"))
		}
		log("%s: %s eof=%v %v", what, errClass(err), eof, heads)
	}
	one := func(b []byte) [][]byte {
		if b == nil {
			return nil
		}
		return [][]byte{b}
	}
	errOnly := func(what string, err error) { log("%s: %s", what, errClass(err)) }

	// Directory edges.
	m, err := c.Create("a")
	meta("create a", m, err)
	m, err = c.Create("a")
	meta("create a again", m, err)
	m, err = c.Create("")
	meta("create empty name", m, err)
	m, err = c.CreateSubset("bad", distrib.Spec{P: 2}, []int{0, 99})
	meta("create bad subset", m, err)
	m, err = c.CreateSpec("bad", distrib.Spec{P: 64}, false)
	meta("create p too wide", m, err)
	// A rejected create burns no file id: b gets the id right after a's.
	m, err = c.CreateSpec("b", distrib.Spec{}, true)
	meta("create b (tree)", m, err)
	const name = "missing"
	_, err = c.Open(name)
	errOnly("open missing", err)
	_, err = c.Stat(name)
	errOnly("stat missing", err)
	_, err = c.Delete(name)
	errOnly("delete missing", err)
	_, err = c.Release(name)
	errOnly("release missing", err)
	_, err = c.Rename(name, "x")
	errOnly("rename missing", err)
	_, _, err = c.SeqRead(name)
	errOnly("seqread missing", err)
	_, _, err = c.SeqReadN(name, 4)
	errOnly("seqreadn missing", err)
	errOnly("seqwrite missing", c.SeqWrite(name, payload(0)))
	_, err = c.ReadAt(name, 0)
	errOnly("readat missing", err)
	_, err = c.ReadAtN(name, 0, 2)
	errOnly("readatn missing", err)
	errOnly("writeat missing", c.WriteAt(name, 0, payload(0)))
	_, err = c.WriteAtN(name, 0, [][]byte{payload(0)})
	errOnly("writeatn missing", err)
	_, err = c.Flush(name)
	errOnly("flush missing", err)

	// Sequential write, sizes, implicit and explicit open, sequential read.
	for i := 0; i < 10; i++ {
		errOnly(fmt.Sprintf("seqwrite %d", i), c.SeqWrite("a", payload(i)))
	}
	errOnly("seqwrite oversize", c.SeqWrite("a", make([]byte, PayloadBytes+1)))
	m, err = c.Stat("a")
	meta("stat a", m, err)
	b, eof, err := c.SeqRead("a")
	blocks("seqread a unopened", one(b), eof, err)
	m, err = c.Open("a")
	meta("open a", m, err)
	for i := 0; i < 3; i++ {
		b, eof, err = c.SeqRead("a")
		blocks("seqread a", one(b), eof, err)
	}
	bs, eof, err := c.SeqReadN("a", 4)
	blocks("seqreadn a 4", bs, eof, err)
	bs, eof, err = c.SeqReadN("a", 10)
	blocks("seqreadn a to end", bs, eof, err)
	b, eof, err = c.SeqRead("a")
	blocks("seqread a at eof", one(b), eof, err)
	bs, eof, err = c.SeqReadN("a", 4)
	blocks("seqreadn a at eof", bs, eof, err)
	bs, eof, err = c.SeqReadN("a", 0)
	blocks("seqreadn a 0", bs, eof, err)

	// Random reads and their edges.
	b, err = c.ReadAt("a", 3)
	blocks("readat a 3", one(b), false, err)
	b, err = c.ReadAt("a", 10)
	blocks("readat a at size", one(b), false, err)
	b, err = c.ReadAt("a", -1)
	blocks("readat a -1", one(b), false, err)
	bs, err = c.ReadAtN("a", 8, 5)
	blocks("readatn a 8+5", bs, false, err)
	bs, err = c.ReadAtN("a", 0, 0)
	blocks("readatn a count 0", bs, false, err)

	// Random writes: overwrite, append at the size, past the size, and a
	// run that overwrites the tail and extends.
	errOnly("writeat a 3", c.WriteAt("a", 3, payload(103)))
	errOnly("writeat a at size", c.WriteAt("a", 10, payload(10)))
	errOnly("writeat a past size", c.WriteAt("a", 12, payload(12)))
	n, err := c.WriteAtN("a", 9, [][]byte{payload(109), payload(110), payload(111), payload(112)})
	log("writeatn a 9+4: %s n=%d", errClass(err), n)
	n, err = c.WriteAtN("a", 20, [][]byte{payload(20)})
	log("writeatn a past size: %s n=%d", errClass(err), n)
	n, err = c.WriteAtN("a", 0, [][]byte{make([]byte, PayloadBytes+1)})
	log("writeatn a oversize: %s n=%d", errClass(err), n)
	n, err = c.AppendN("a", [][]byte{payload(13), payload(14)})
	log("appendn a 2: %s n=%d", errClass(err), n)
	m, err = c.Stat("a")
	meta("stat a grown", m, err)
	bs, err = c.ReadAtN("a", 0, 64)
	blocks("readatn a all", bs, false, err)

	// Scatter: reads and positional writes on two files in one request
	// (the read of a's block 5 follows its overwrite), then one whose
	// out-of-range write rejects the write beside it.
	scatter := func(what string, items []ScatterItem) {
		res, err := c.Scatter(items)
		line := what + ": " + errClass(err)
		for i := range items {
			data, ierr := res.At(i)
			line += fmt.Sprintf(" [%s %s]", errClass(ierr), head(data))
		}
		log("%s", line)
	}
	scatter("scatter a+b", []ScatterItem{
		{Name: "a", BlockNum: 3},
		{Name: "b", BlockNum: 0, Write: true, Data: payload(200)},
		{Name: "a", BlockNum: 5, Write: true, Data: payload(105)},
		{Name: "a", BlockNum: 5},
		{Name: "a", BlockNum: 99},
		{Name: name, BlockNum: 0},
	})
	scatter("scatter rejected", []ScatterItem{
		{Name: "b", BlockNum: 1, Write: true, Data: payload(201)},
		{Name: "a", BlockNum: 99, Write: true, Data: payload(199)},
		{Name: "b", BlockNum: 0},
	})
	m, err = c.Stat("b")
	meta("stat b after scatters", m, err)

	// Flush, then rename with a live cursor.
	f, err := c.Flush("a")
	errOnly("flush a", err)
	flushed = append(flushed, fmt.Sprintf("flush a: %d", f))
	errOnly("seqwrite a after flush", c.SeqWrite("a", payload(15)))
	f, err = c.FlushAll()
	errOnly("flushall", err)
	flushed = append(flushed, fmt.Sprintf("flushall: %d", f))
	m, err = c.Open("a")
	meta("reopen a", m, err)
	bs, eof, err = c.SeqReadN("a", 2)
	blocks("seqreadn a 2", bs, eof, err)
	m, err = c.Rename("a", "b")
	meta("rename a onto b", m, err)
	m, err = c.Rename("a", "a")
	meta("rename a to itself", m, err)
	m, err = c.Rename("a", "")
	meta("rename a to empty", m, err)
	m, err = c.Rename("a", "c")
	meta("rename a to c", m, err)
	b, eof, err = c.SeqRead("c")
	blocks("seqread c keeps cursor", one(b), eof, err)
	_, err = c.Stat("a")
	errOnly("stat a renamed away", err)
	names, err := c.List()
	log("list: %s %v", errClass(err), names)

	// Release and delete.
	m, err = c.Release("b")
	meta("release b", m, err)
	_, err = c.Stat("b")
	errOnly("stat b released", err)
	freed, err := c.Delete("c")
	log("delete c: %s freed=%d", errClass(err), freed)
	_, _, err = c.SeqRead("c")
	errOnly("seqread c deleted", err)
	names, err = c.List()
	log("list: %s %v", errClass(err), names)
	return seen, flushed
}

// TestGroupSizeDifferential runs one scripted client over every command
// that is legal at any group size, at group sizes 1 and 3, with and without
// write-behind: the single server must be one state machine, so everything
// the client sees — bytes, sizes, EOF flags, error classes — is identical
// in all four. The features a replicated group rejects are the only
// differences, asserted explicitly below (DESIGN.md's feature × group-size
// table).
func TestGroupSizeDifferential(t *testing.T) {
	type run struct {
		replicas, wb  int
		seen, flushed []string
	}
	var runs []*run
	for _, replicas := range []int{1, 3} {
		for _, wb := range []int{0, 2} {
			r := &run{replicas: replicas, wb: wb}
			cfg := fastCfg(4)
			cfg.Replicas = replicas
			cfg.Server.WriteBehind = wb
			withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
				r.seen, r.flushed = groupScript(c)
			})
			runs = append(runs, r)
		}
	}
	base := runs[0]
	if len(base.seen) < 73 {
		t.Fatalf("script recorded only %d calls", len(base.seen))
	}
	for _, want := range []string{
		"create b (tree): ok name=\"b\" id=2", // no id burned by the three rejected creates
		"seqread a unopened: ok eof=false [block-0|]",
		"seqreadn a to end: ok eof=true [block-7| block-8| block-9|]",
		"readat a at size: ErrEOF",
		"writeat a past size: ErrBadArg",
		"stat a grown: ok name=\"a\" id=1 blocks=15",
		"scatter a+b: ok [ok block-103|] [ok ] [ok ] [ok block-105|] [ErrEOF ] [ErrNotFound ]",
		"scatter rejected: ok [ErrSkipped ] [ErrBadArg ] [ok block-200|]",
		"stat b after scatters: ok name=\"b\" id=2 blocks=1",
		"rename a onto b: ErrExists",
		"seqread c keeps cursor: ok eof=false [block-2|]",
		"delete c: ok freed=16",
	} {
		found := false
		for _, line := range base.seen {
			found = found || strings.HasPrefix(line, want)
		}
		if !found {
			t.Errorf("group of one never reported %q", want)
		}
	}
	for _, r := range runs[1:] {
		if !reflect.DeepEqual(r.seen, base.seen) {
			for i := range base.seen {
				if i >= len(r.seen) || r.seen[i] != base.seen[i] {
					got := "<nothing>"
					if i < len(r.seen) {
						got = r.seen[i]
					}
					t.Errorf("Replicas=%d WriteBehind=%d diverges from a plain group of one at call %d:\n got  %s\n want %s",
						r.replicas, r.wb, i, got, base.seen[i])
					break
				}
			}
		}
	}
	// Drain counts depend on write-behind, never on the group size.
	for i := 0; i < 2; i++ {
		if one, three := runs[i], runs[i+2]; !reflect.DeepEqual(one.flushed, three.flushed) {
			t.Errorf("WriteBehind=%d: flushed counts %v at group size 1, %v at 3", one.wb, one.flushed, three.flushed)
		}
	}
}

// TestNamesAreNotErrorText: a failure's class is its code, so a file whose
// name spells out a sentinel's text fails exactly like any other file, at
// both group sizes — the same class and no other, no redirect or
// retransmission, and the same simulated time as a plain name of equal
// length. (When the client found the class by searching the reply's text, a
// Stat of the missing "x bridge: not leader" on a replicated group hunted
// for a leader 18 times and came back ErrNotLeader.)
func TestNamesAreNotErrorText(t *testing.T) {
	only := func(err, want error) bool {
		for _, s := range classes {
			if s != nil && errors.Is(err, s) != errors.Is(want, s) {
				return false
			}
		}
		return true
	}
	for _, replicas := range []int{1, 3} {
		cfg := fastCfg(4)
		cfg.Replicas = replicas
		withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
			retries := func() int64 { return cl.Net.Stats().Get("bridge.client_retries") }
			timed := func(fn func() error) (error, time.Duration) {
				start := p.Now()
				err := fn()
				return err, p.Now() - start
			}
			stat := func(name string) func() error {
				return func() error { _, err := c.Stat(name); return err }
			}
			create := func(name string) func() error {
				return func() error { _, err := c.Create(name); return err }
			}
			near := func(a, b time.Duration) bool { return a-b <= time.Millisecond && b-a <= time.Millisecond }
			_, _ = c.Stat("find the leader first")
			for _, sentinel := range classes {
				if sentinel == nil {
					continue
				}
				name := "x " + sentinel.Error()
				plain := strings.Repeat("p", len(name))
				before := retries()

				_, plainTook := timed(stat(plain))
				err, took := timed(stat(name))
				if !only(err, ErrNotFound) || !near(took, plainTook) {
					t.Errorf("Replicas=%d: Stat(%q) = %v in %v; want ErrNotFound alone in the %v a plain name takes", replicas, name, err, took, plainTook)
				}

				if err := create(plain)(); err != nil {
					t.Errorf("Replicas=%d: Create(%q): %v", replicas, plain, err)
				}
				if err := create(name)(); err != nil {
					t.Errorf("Replicas=%d: Create(%q): %v", replicas, name, err)
				}
				_, plainTook = timed(create(plain))
				err, took = timed(create(name))
				if !only(err, ErrExists) || !near(took, plainTook) {
					t.Errorf("Replicas=%d: second Create(%q) = %v in %v; want ErrExists alone in the %v a plain name takes", replicas, name, err, took, plainTook)
				}
				if _, err := c.Delete(plain); err != nil {
					t.Errorf("Replicas=%d: Delete(%q): %v", replicas, plain, err)
				}
				if _, err := c.Delete(name); err != nil {
					t.Errorf("Replicas=%d: Delete(%q): %v", replicas, name, err)
				}
				if moved := retries() - before; moved != 0 {
					t.Errorf("Replicas=%d: %d redirects or retransmissions over the calls on %q", replicas, moved, name)
				}
			}
		})
	}
}

// TestGroupSizeRestrictions pins the client-visible differences between
// group sizes that remain: disordered files and parallel-open jobs work on
// a group of one and are a typed ErrBadArg on a replicated group.
func TestGroupSizeRestrictions(t *testing.T) {
	for _, replicas := range []int{0, 1, 3} {
		cfg := fastCfg(4)
		cfg.Replicas = replicas
		withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
			if _, err := c.Create("f"); err != nil {
				t.Fatalf("Replicas=%d: Create: %v", replicas, err)
			}
			w := NewJobWorker(cl.Net, 0, "w0")
			defer w.Close()
			_, derr := c.CreateDisordered("d")
			job, jerr := c.ParallelOpen("f", []msg.Addr{w.Addr()})
			if replicas <= 1 {
				if derr != nil || jerr != nil {
					t.Fatalf("Replicas=%d: disordered create %v, parallel open %v; both must work on a group of one", replicas, derr, jerr)
				}
				if err := c.SeqWrite("d", payload(1)); err != nil {
					t.Errorf("Replicas=%d: write to disordered file: %v", replicas, err)
				}
				if err := job.Close(); err != nil {
					t.Errorf("Replicas=%d: job close: %v", replicas, err)
				}
				return
			}
			if !errors.Is(derr, ErrBadArg) || !errors.Is(jerr, ErrBadArg) {
				t.Errorf("Replicas=%d: disordered create %v, parallel open %v; want ErrBadArg for both", replicas, derr, jerr)
			}
			// With no job to name, the other job commands have nothing
			// to act on.
			ghost := &Job{ID: 1, c: c, srv: c.first()}
			if _, _, err := ghost.Read(); !errors.Is(err, ErrNoJob) {
				t.Errorf("Replicas=%d: read on a job that cannot exist: %v, want ErrNoJob", replicas, err)
			}
		})
	}
}

// TestGroupConfigRejected pins the configurations a replicated group
// refuses at construction instead of silently switching off, and that 0
// and 1 both mean a group of one.
func TestGroupConfigRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*ClusterConfig)
	}{
		{"Health", func(c *ClusterConfig) { c.Server.Health = &HealthConfig{} }},
		{"ReadAhead", func(c *ClusterConfig) { c.Server.ReadAhead = 2 }},
	} {
		for _, replicas := range []int{0, 1, 3} {
			cfg := fastCfg(2)
			cfg.Replicas = replicas
			tc.edit(&cfg)
			rt := sim.NewVirtual()
			cl, err := StartCluster(rt, cfg)
			if replicas > 1 {
				if !errors.Is(err, ErrBadArg) {
					t.Errorf("Replicas=%d with %s: %v, want ErrBadArg", replicas, tc.name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("Replicas=%d with %s: %v", replicas, tc.name, err)
			}
			if cl.GroupSize() != 1 || len(cl.Servers) != 1 {
				t.Errorf("Replicas=%d: group size %d over %d servers, want a group of one", replicas, cl.GroupSize(), len(cl.Servers))
			}
			rt.Go("stop", func(sim.Proc) { cl.Stop() })
			if err := rt.Wait(); err != nil {
				t.Fatalf("sim: %v", err)
			}
		}
	}
}

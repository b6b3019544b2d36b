package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"bridge"
	"bridge/internal/sim"
)

// workload is one set of inputs the benchmark runs. All of them use 8
// storage nodes, seeded records of in.recLen bytes, and (unless config says
// otherwise) the default 15 ms Wren disks and 128-block EFS caches. Every
// simulated client is closed-loop: the Bridge client library is synchronous,
// so each caller sends its next request only when the last one returned.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// repeats it); README.md has the long form and what it bypasses.
	why    string
	config func(in *inputs) bridge.Config
	run    func(s *bridge.Session, in *inputs, p params, m *meter) error
}

const nodes = 8

// File numbers for inputs.fill, one per logical file: fileMirror, +1 and +2
// are redundant_degraded's mirror, parity and RS files.
const (
	fileSrc = iota + 1
	fileMirror
)

var workloads = []*workload{
	{
		name:   "naive_read",
		why:    "paper Table 2 read: one client, one block per server round trip over a file 10x the caches; bypasses read-ahead, vectoring, raft, replica, tools",
		config: func(*inputs) bridge.Config { return bridge.Config{Nodes: nodes} },
		run:    runNaiveRead,
	},
	{
		name:   "naive_write",
		why:    "paper Table 2 write: one client, synchronous per-block append; EFS allocation and the server write path, the write twin of naive_read",
		config: func(*inputs) bridge.Config { return bridge.Config{Nodes: nodes} },
		run:    runNaiveWrite,
	},
	{
		name: "stream_read",
		why:  "batched ReadN(32) with read-ahead over 40960 blocks: scatter-gather, ReadVec and the read-ahead cache; naive_read is its bypass",
		config: func(*inputs) bridge.Config {
			return bridge.Config{Nodes: nodes, ReadAhead: 4}
		},
		run: runStreamRead,
	},
	{
		name: "stream_write",
		why:  "per-block Append through write-behind, then AppendN(32), on journaled volumes: group commit, AppendRun, vectored writes; naive_write is its bypass",
		config: func(*inputs) bridge.Config {
			return bridge.Config{Nodes: nodes, WriteBehind: 4, Journal: 64}
		},
		run: runStreamWrite,
	},
	{
		name:   "tool_copy_sort",
		why:    "paper Tables 3-4: copy then sort 10240 records through the tool view; node-local LFS access and the token-ring merge, server data path idle",
		config: func(*inputs) bridge.Config { return bridge.Config{Nodes: nodes} },
		run:    runToolCopySort,
	},
	{
		name: "meta_failover",
		why:  "8 clients churn create/stat/open/delete on 2 shards x 3 raft replicas while a leader is killed and restarted; the only path through raft",
		config: func(*inputs) bridge.Config {
			// Near-zero disks: the directory path, not the media, dominates.
			return bridge.Config{Nodes: nodes, Servers: 2, Replicas: 3, DiskLatency: time.Microsecond}
		},
		run: runMetaFailover,
	},
	{
		name: "redundant_degraded",
		why:  "append to mirror, parity and RS(6,2) files, fail a node, read everything back degraded; all of internal/replica and nothing else uses it",
		config: func(*inputs) bridge.Config {
			return bridge.Config{Nodes: nodes, Health: &bridge.HealthConfig{}}
		},
		run: runRedundantDegraded,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// preload creates name and fills it with n seeded blocks in large batches,
// generating each batch just before it is sent so the benchmark itself
// holds no copy of the file.
func preload(s *bridge.Session, in *inputs, name string, file, n int) error {
	if err := s.Create(name); err != nil {
		return err
	}
	const batch = 64
	for at := 0; at < n; at += batch {
		k := min(batch, n-at)
		if wrote, err := s.AppendN(name, in.blocks(file, at, k)); err != nil || wrote != k {
			return fmt.Errorf("preload %s at %d: wrote %d of %d: %v", name, at, wrote, k, err)
		}
	}
	return nil
}

// verifyPrefix reads the first k blocks of name back, outside the measured
// window, and checks them against the generator; it also checks Stat.
func verifyPrefix(s *bridge.Session, in *inputs, m *meter, name string, file, want, k int) {
	info, err := s.Stat(name)
	m.check(err == nil && info.Blocks == int64(want), "stat %s: %d blocks, want %d (%v)", name, info.Blocks, want, err)
	if _, err := s.Open(name); err != nil {
		m.check(false, "reopen %s: %v", name, err)
		return
	}
	exp := make([]byte, in.recLen)
	for i := 0; i < min(k, want); i++ {
		got, err := s.Read(name)
		in.fill(exp, file, i)
		m.check(err == nil && bytes.Equal(got, exp), "read-back %s block %d differs (%v)", name, i, err)
	}
}

var errVerify = errors.New("block content differs from the generator")

func runNaiveRead(s *bridge.Session, in *inputs, p params, m *meter) error {
	n := p.div(10240)
	f := in.name("f")
	if err := preload(s, in, f, fileSrc, n); err != nil {
		return err
	}
	exp := make([]byte, in.recLen)
	m.begin(n + 2)
	if err := m.call(func() error { _, err := s.Open(f); return err }); err != nil {
		return err
	}
	got := 0
	for {
		var eof bool
		err := m.call(func() error {
			data, err := s.Read(f)
			if errors.Is(err, bridge.ErrEOF) {
				eof = true
				return nil
			}
			if err != nil {
				return err
			}
			in.fill(exp, fileSrc, got)
			got++
			if !bytes.Equal(data, exp) {
				return errVerify
			}
			return nil
		})
		if eof || got > n || (err != nil && !errors.Is(err, errVerify)) {
			break
		}
	}
	m.end(n, n, s.Now())
	m.check(got == n, "read %d blocks, want %d", got, n)
	return nil
}

func runNaiveWrite(s *bridge.Session, in *inputs, p params, m *meter) error {
	n := p.div(10240)
	f := in.name("f")
	data := in.blocks(fileSrc, 0, n)
	m.begin(n + 2)
	if err := m.call(func() error { return s.Create(f) }); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		m.call(func() error { return s.Append(f, data[i]) })
	}
	m.call(s.Sync)
	data = nil
	m.end(n, n, s.Now())
	verifyPrefix(s, in, m, f, fileSrc, n, 64)
	return nil
}

const streamBatch = 32

func runStreamRead(s *bridge.Session, in *inputs, p params, m *meter) error {
	n := p.div(40960)
	f := in.name("f")
	if err := preload(s, in, f, fileSrc, n); err != nil {
		return err
	}
	exp := make([]byte, in.recLen)
	m.begin(n/streamBatch + 3)
	if err := m.call(func() error { _, err := s.Open(f); return err }); err != nil {
		return err
	}
	got := 0
	for {
		var eof bool
		err := m.call(func() error {
			blocks, err := s.ReadN(f, streamBatch)
			if errors.Is(err, bridge.ErrEOF) {
				eof = true
				return nil
			}
			if err != nil {
				return err
			}
			for _, b := range blocks {
				in.fill(exp, fileSrc, got)
				got++
				if !bytes.Equal(b, exp) {
					return errVerify
				}
			}
			return nil
		})
		if eof || got > n || (err != nil && !errors.Is(err, errVerify)) {
			break
		}
	}
	m.end(n, n, s.Now())
	m.check(got == n, "read %d blocks, want %d", got, n)
	return nil
}

func runStreamWrite(s *bridge.Session, in *inputs, p params, m *meter) error {
	n := p.div(40960) / (2 * streamBatch) * (2 * streamBatch)
	f := in.name("f")
	data := in.blocks(fileSrc, 0, n)
	m.begin(n/2 + n/2/streamBatch + 2)
	if err := m.call(func() error { return s.Create(f) }); err != nil {
		return err
	}
	// The server's write-behind cache takes only single-block appends;
	// AppendN goes straight to the vectored write path. A streaming writer
	// uses both, so each gets half the file: the first half exercises
	// group commit (core.wb_*), the second the batched scatter.
	for i := 0; i < n/2; i++ {
		m.call(func() error { return s.Append(f, data[i]) })
	}
	for at := n / 2; at < n; at += streamBatch {
		m.call(func() error {
			wrote, err := s.AppendN(f, data[at:at+streamBatch])
			if err == nil && wrote != streamBatch {
				err = fmt.Errorf("AppendN wrote %d of %d", wrote, streamBatch)
			}
			return err
		})
	}
	m.call(s.Sync)
	data = nil
	m.end(n, n, s.Now())
	verifyPrefix(s, in, m, f, fileSrc, n, 64)
	return nil
}

// keyDigest folds one record into an order-independent multiset digest.
func keyDigest(rec []byte) uint64 {
	h := splitmix(binary.BigEndian.Uint64(rec))
	return h ^ splitmix(h+uint64(len(rec))+binary.BigEndian.Uint64(rec[len(rec)-8:]))
}

func runToolCopySort(s *bridge.Session, in *inputs, p params, m *meter) error {
	n := p.div(10240)
	f, g, h := in.name("f"), in.name("g"), in.name("h")
	if err := preload(s, in, f, fileSrc, n); err != nil {
		return err
	}
	var want uint64
	rec := make([]byte, in.recLen)
	for i := 0; i < n; i++ {
		in.fill(rec, fileSrc, i)
		want += keyDigest(rec)
	}
	opts := bridge.SortOptions{InCore: p.div(512)}
	var tt toolTimes
	m.begin(2)
	m.call(func() error {
		t := s.Now()
		st, err := s.Copy(f, g)
		tt.copy = s.Now() - t
		if err == nil && st.Blocks != int64(n) {
			err = fmt.Errorf("copy moved %d blocks, want %d", st.Blocks, n)
		}
		return err
	})
	m.call(func() error {
		st, err := s.Sort(g, h, opts)
		tt.sortLocal, tt.sortMerge = st.LocalSort, st.Merge
		if err == nil && st.Records != int64(n) {
			err = fmt.Errorf("sort saw %d records, want %d", st.Records, n)
		}
		return err
	})
	tt.records = n
	m.r.tools = tt
	// One op is one record through one tool; f, g and h are all live.
	m.end(2*n, 3*n, s.Now())

	out, err := s.ReadAll(h)
	m.check(err == nil && len(out) == n, "sorted file has %d records, want %d (%v)", len(out), n, err)
	var got uint64
	sorted := true
	for i, r := range out {
		if len(r) != in.recLen {
			sorted = false
			break
		}
		got += keyDigest(r)
		if i > 0 && bytes.Compare(out[i-1][:8], r[:8]) > 0 {
			sorted = false
		}
	}
	m.check(sorted, "sorted file is out of order or has short records")
	m.check(got == want, "sorted file's record multiset differs from the source")
	return nil
}

const metaClients = 8

func runMetaFailover(s *bridge.Session, in *inputs, p params, m *meter) error {
	files := max(60/p.scale, 4)
	killAt := 2 * time.Second / time.Duration(p.scale)
	restartAt := 6 * time.Second / time.Duration(p.scale)

	// One one-block keeper file per client stays live across the phase, so
	// storage_amp has user data to divide by and a block leaked by the
	// churn shows up against it.
	keepers := make([]string, metaClients)
	for i := range keepers {
		keepers[i] = shardName(s, in, fmt.Sprintf("keep%d", i), i%s.Shards())
		if err := preload(s, in, keepers[i], fileSrc, 1); err != nil {
			return err
		}
	}

	cl := s.Cluster()
	done := cl.Runtime().NewQueue("benchmark.meta.done")
	calls := metaClients * files * 4
	m.begin(calls)
	start := s.Now()
	for i := 0; i < metaClients; i++ {
		s.Proc().Go(fmt.Sprintf("benchmark-meta-%d", i), func(cp sim.Proc) {
			c := cl.NewClient(cp, 0, fmt.Sprintf("benchmark.meta.%d", i))
			defer c.Close()
			for j := 0; j < files; j++ {
				name := shardName(s, in, fmt.Sprintf("m%d.%d", i, j), (i+j)%s.Shards())
				m.callAt(cp.Now, func() error { _, err := c.Create(name); return err })
				m.callAt(cp.Now, func() error { _, err := c.Stat(name); return err })
				m.callAt(cp.Now, func() error { _, err := c.Open(name); return err })
				m.callAt(cp.Now, func() error { _, err := c.Delete(name); return err })
			}
			done.Send(cp.Now())
		})
	}
	// The session process is the chaos controller: kill shard 0's leader,
	// bring it back, then join the clients.
	s.Proc().Sleep(killAt)
	victim := s.LeaderServer(0)
	if victim < 0 {
		return errors.New("meta_failover: shard 0 has no leader to kill")
	}
	if err := s.CrashServer(0, victim); err != nil {
		return err
	}
	s.Proc().Sleep(restartAt - killAt)
	if err := s.RestartServer(0, victim); err != nil {
		return err
	}
	finished := start
	for i := 0; i < metaClients; i++ {
		v, ok := done.Recv(s.Proc())
		if !ok {
			return errors.New("meta_failover: client queue closed")
		}
		finished = max(finished, v.(time.Duration))
	}
	done.Close()
	m.end(calls, metaClients, finished)

	names, err := s.Client().List() // sorted
	sort.Strings(keepers)
	m.check(err == nil && slices.Equal(names, keepers), "directory holds %v, want only the keepers (%v)", names, err)
	// Give the restarted replica time to catch up, then every shard must
	// have a leader.
	s.Proc().Sleep(2 * time.Second)
	for g := 0; g < s.Shards(); g++ {
		m.check(s.LeaderServer(g) >= 0, "shard %d has no leader after the restart", g)
	}
	return nil
}

// shardName returns a seeded name that lives on the given directory shard.
// A name's shard is a hash of its text, and with two shards that hash is
// one parity bit which the seeded suffix flips for every name at once; the
// variant digit keeps each client alternating between the shards for every
// seed, so the seed changes the names but not which group is busy.
func shardName(s *bridge.Session, in *inputs, base string, shard int) string {
	for k := 0; ; k++ {
		if name := in.name(fmt.Sprintf("%s.%d", base, k%10)); s.ShardOf(name) == shard {
			return name
		}
	}
}

// redundantFile is the part of Mirror, Parity and RS the workload drives.
type redundantFile interface {
	Append(payload []byte) error
	Read(n int64) ([]byte, error)
}

func runRedundantDegraded(s *bridge.Session, in *inputs, p params, m *meter) error {
	n := p.div(2048)
	m.begin(6*n + 3)
	var files [3]redundantFile
	create := []func() error{
		func() (err error) { files[0], err = s.NewMirror(in.name("mir")); return },
		func() (err error) { files[1], err = s.NewParity(in.name("par")); return },
		func() (err error) {
			files[2], err = s.NewRS(in.name("rs"), bridge.RSOptions{K: 6, M: 2, BlockBytes: in.recLen})
			return
		},
	}
	for _, fn := range create {
		if err := m.call(fn); err != nil {
			return err
		}
	}
	// Parity files take only full blocks; the mirror and RS files carry
	// the seeded record length like every other workload.
	bufs := [3][]byte{make([]byte, in.recLen), make([]byte, bridge.PayloadBytes), make([]byte, in.recLen)}
	for k, f := range files {
		for i := 0; i < n; i++ {
			in.fill(bufs[k], fileMirror+k, i)
			m.call(func() error { return f.Append(bufs[k]) })
		}
	}
	if err := s.FailNode(2); err != nil {
		return err
	}
	for k, f := range files {
		for i := 0; i < n; i++ {
			m.call(func() error {
				got, err := f.Read(int64(i))
				if err != nil {
					return err
				}
				in.fill(bufs[k], fileMirror+k, i)
				if !bytes.Equal(got, bufs[k]) {
					return errVerify
				}
				return nil
			})
		}
	}
	m.end(6*n, 3*n, s.Now())
	return nil
}

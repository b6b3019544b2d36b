package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// runQuiet executes a bridgefs invocation, capturing stdout.
func runQuiet(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatalf("reading captured stdout: %v", err)
	}
	return buf.String(), runErr
}

func TestCLILifecycle(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "cluster")

	if _, err := runQuiet(t, "-dir", state, "init", "-nodes", "4", "-blocks", "1024"); err != nil {
		t.Fatalf("init: %v", err)
	}
	// Re-init refused.
	if _, err := runQuiet(t, "-dir", state, "init"); err == nil {
		t.Fatal("second init succeeded")
	}

	// Put a host file.
	content := []byte(strings.Repeat("bridge carries interleaved blocks\n", 80))
	local := filepath.Join(dir, "in.txt")
	if err := os.WriteFile(local, content, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runQuiet(t, "-dir", state, "put", local, "doc")
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if !strings.Contains(out, "stored") {
		t.Errorf("put output: %q", out)
	}

	// List shows it (persistence across invocations). The last invocation
	// synced every store, so this mount walks none.
	out, err = runQuiet(t, "-dir", state, "ls")
	if err != nil || !strings.Contains(out, "doc") {
		t.Fatalf("ls: %q, %v", out, err)
	}
	if !strings.Contains(out, "0 of 4 volumes walked]") {
		t.Errorf("ls after a clean put walked a volume: %q", out)
	}

	// Copy with the tool; grep the copy.
	if _, err := runQuiet(t, "-dir", state, "cp", "doc", "doc2"); err != nil {
		t.Fatalf("cp: %v", err)
	}
	out, err = runQuiet(t, "-dir", state, "grep", "doc2", "interleaved")
	if err != nil {
		t.Fatalf("grep: %v", err)
	}
	if !strings.Contains(out, "matches") {
		t.Errorf("grep output: %q", out)
	}

	// wc totals.
	out, err = runQuiet(t, "-dir", state, "wc", "doc")
	if err != nil || !strings.Contains(out, "80 lines") {
		t.Fatalf("wc: %q, %v", out, err)
	}

	// Round trip.
	back := filepath.Join(dir, "out.txt")
	if _, err := runQuiet(t, "-dir", state, "get", "doc2", back); err != nil {
		t.Fatalf("get: %v", err)
	}
	got, err := os.ReadFile(back)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("round trip differs (%d vs %d bytes), %v", len(got), len(content), err)
	}

	// fsck clean.
	out, err = runQuiet(t, "-dir", state, "fsck")
	if err != nil {
		t.Fatalf("fsck: %v (%q)", err, out)
	}
	if !strings.Contains(out, "clean") {
		t.Errorf("fsck output: %q", out)
	}

	// Sort.
	if _, err := runQuiet(t, "-dir", state, "sort", "doc", "doc.sorted"); err != nil {
		t.Fatalf("sort: %v", err)
	}

	// Delete and confirm.
	if _, err := runQuiet(t, "-dir", state, "rm", "doc"); err != nil {
		t.Fatalf("rm: %v", err)
	}
	out, _ = runQuiet(t, "-dir", state, "ls")
	if strings.Contains(out, "doc\n") {
		t.Errorf("doc still listed after rm: %q", out)
	}

	// info works.
	out, err = runQuiet(t, "-dir", state, "info")
	if err != nil || !strings.Contains(out, "4 storage nodes") {
		t.Fatalf("info: %q, %v", out, err)
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "cluster")
	if _, err := runQuiet(t, "-dir", state, "ls"); err == nil {
		t.Error("ls without init succeeded")
	}
	if _, err := runQuiet(t, "ls"); err == nil {
		t.Error("missing -dir accepted")
	}
	if _, err := runQuiet(t, "-dir", state); err == nil {
		t.Error("missing subcommand accepted")
	}
	runQuiet(t, "-dir", state, "init", "-nodes", "2", "-blocks", "512")
	if _, err := runQuiet(t, "-dir", state, "bogus"); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if _, err := runQuiet(t, "-dir", state, "get", "ghost", "/tmp/x"); err == nil {
		t.Error("get of missing file succeeded")
	}
	if _, err := runQuiet(t, "-dir", state, "put"); err == nil {
		t.Error("put without args accepted")
	}
}

func TestCLIEmptyFile(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "cluster")
	runQuiet(t, "-dir", state, "init", "-nodes", "2", "-blocks", "512")
	local := filepath.Join(dir, "empty")
	os.WriteFile(local, nil, 0o644)
	if _, err := runQuiet(t, "-dir", state, "put", local, "empty"); err != nil {
		t.Fatalf("put empty: %v", err)
	}
	back := filepath.Join(dir, "empty.out")
	if _, err := runQuiet(t, "-dir", state, "get", "empty", back); err != nil {
		t.Fatalf("get empty: %v", err)
	}
	got, err := os.ReadFile(back)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip = %d bytes, %v", len(got), err)
	}
}

// TestCLIStateDirectory: a state directory holds the manifest and one
// durable store per node, and nothing else once an invocation is done.
func TestCLIStateDirectory(t *testing.T) {
	state := filepath.Join(t.TempDir(), "cluster")
	if _, err := runQuiet(t, "-dir", state, "init", "-nodes", "3", "-blocks", "512"); err != nil {
		t.Fatalf("init: %v", err)
	}
	if _, err := runQuiet(t, "-dir", state, "ls"); err != nil {
		t.Fatalf("ls: %v", err)
	}
	ents, err := os.ReadDir(state)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := []string{"manifest.json", "node1.disk", "node2.disk", "node3.disk"}
	if !slices.Equal(names, want) {
		t.Errorf("state directory holds %q, want %q", names, want)
	}
	for _, name := range want[1:] {
		st, err := disk.OpenFileStore(filepath.Join(state, name), efs.BlockSize, 512)
		if err != nil {
			t.Fatalf("%s is not a store of the volume's geometry: %v", name, err)
		}
		// init formats, ls mounts: two opens before this one.
		if n := st.MountCount(); n != 3 {
			t.Errorf("%s mount count %d, want 3", name, n)
		}
		st.Close()
	}
}

// TestCLICorruptBlockRefused flips one byte of a block the stored file owns,
// in the store at rest. The store is still clean, so the next mount does not
// walk it: ls, which reads no data block, serves, and get refuses, naming the
// node and the block. Once the store's clean flag is cleared the next mount
// walks it and refuses before any operation, naming them too, and so does
// every mount after it: a walk that found damage keeps the store dirty.
// fsck still runs and lists the damage, and a write is refused after it.
func TestCLICorruptBlockRefused(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "cluster")
	if _, err := runQuiet(t, "-dir", state, "init", "-nodes", "2", "-blocks", "512"); err != nil {
		t.Fatalf("init: %v", err)
	}
	local := filepath.Join(dir, "in.txt")
	if err := os.WriteFile(local, []byte(strings.Repeat("a block the file owns\n", 200)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runQuiet(t, "-dir", state, "put", local, "doc"); err != nil {
		t.Fatalf("put: %v", err)
	}
	// Node index 1 is the store node2.disk. Find a block holding the
	// file's bytes: blocks sit at fixed offsets past the store's header
	// and written-block bitmap.
	path := filepath.Join(state, "node2.disk")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blocksAt := 64 + (512+7)/8
	at := bytes.Index(raw[blocksAt:], []byte("a block the file owns")) + blocksAt
	if at < blocksAt {
		t.Fatal("no block of node2.disk holds the file's bytes")
	}
	bn := (at - blocksAt) / efs.BlockSize
	raw[at] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	namesBlock := regexp.MustCompile(fmt.Sprintf(`\bat (block )?%d\b`, bn))
	refused := func(cmd ...string) {
		t.Helper()
		_, err := runQuiet(t, append([]string{"-dir", state}, cmd...)...)
		if err == nil {
			t.Fatalf("%s on a corrupt volume succeeded", cmd[0])
		}
		if !strings.Contains(err.Error(), "node 1") || !namesBlock.MatchString(err.Error()) {
			t.Errorf("%s: %v; want it to name node 1 and block %d", cmd[0], err, bn)
		}
	}

	if out, err := runQuiet(t, "-dir", state, "ls"); err != nil || !strings.Contains(out, "0 of 2 volumes walked]") {
		t.Fatalf("ls on a clean store with a flipped data byte: %v\n%s", err, out)
	}
	refused("get", "doc", filepath.Join(dir, "out"))

	// Byte 24 of the store's header is its clean flag.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0}, 24); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	refused("ls")
	refused("ls")

	out, err := runQuiet(t, "-dir", state, "fsck")
	if err == nil || !strings.Contains(out, fmt.Sprintf("at %d checksum mismatch", bn)) {
		t.Errorf("fsck on the corrupt volume: %v\n%s", err, out)
	}
	refused("rm", "doc")
}

// TestCLIOldStateDirectory: a state directory of whole-image files from an
// older bridgefs is refused with a pointer to init, and never formatted
// blank under its manifest.
func TestCLIOldStateDirectory(t *testing.T) {
	state := t.TempDir()
	files := map[string]string{
		"manifest.json": `{"Nodes": 2, "DiskBlocks": 512, "Dir": {}}`,
		"disk0.img":     "whole-image file",
		"disk1.img":     "whole-image file",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(state, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := runQuiet(t, "-dir", state, "ls")
	if err == nil || !strings.Contains(err.Error(), "init a new one") {
		t.Fatalf("ls on an old state directory: %v", err)
	}
	if _, err := runQuiet(t, "-dir", state, "init", "-nodes", "2", "-blocks", "512"); err == nil {
		t.Error("init over an old state directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(state, "node1.disk")); err == nil {
		t.Error("a store was created in an old state directory")
	}
}

// TestCLIFailedPutLeavesPartialFile: a put that runs out of space fails,
// but what it wrote stays a file like on any file system — ls names it, rm
// frees it, and the volumes check clean afterwards.
func TestCLIFailedPutLeavesPartialFile(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "cluster")
	if _, err := runQuiet(t, "-dir", state, "init", "-nodes", "2", "-blocks", "512"); err != nil {
		t.Fatalf("init: %v", err)
	}
	local := filepath.Join(dir, "big")
	if err := os.WriteFile(local, bytes.Repeat([]byte("x"), 2*512*1024), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runQuiet(t, "-dir", state, "put", local, "big"); err == nil {
		t.Fatal("a put larger than the volumes succeeded")
	}
	out, err := runQuiet(t, "-dir", state, "ls")
	if err != nil || !strings.Contains(out, "big") {
		t.Fatalf("ls after the failed put: %v\n%s", err, out)
	}
	if strings.Contains(out, " 0 blocks") {
		t.Errorf("the failed put left no blocks: %s", out)
	}
	out, err = runQuiet(t, "-dir", state, "rm", "big")
	if err != nil || strings.Contains(out, " 0 blocks freed") {
		t.Fatalf("rm of the partial file: %v\n%s", err, out)
	}
	out, err = runQuiet(t, "-dir", state, "fsck")
	if err != nil || strings.Count(out, "clean") != 2 {
		t.Errorf("fsck after rm: %v\n%s", err, out)
	}
	if out, _ := runQuiet(t, "-dir", state, "ls"); !strings.Contains(out, "(no files)") {
		t.Errorf("ls after rm: %s", out)
	}
}

// TestMountBoundCoversCheck: on a full, fragmented volume whose store is
// dirty, the mount's walk costs one disk access per chained block, so
// mountBound, which allows mountAccesses per block of the volume, lets a
// full volume of any size answer its recovery call.
func TestMountBoundCoversCheck(t *testing.T) {
	const nodes, blocks = 2, 1024
	state, m := fullCluster(t, nodes, blocks)
	// Opened and closed without a Sync, each store is dirty at the next
	// open, so every node walks its volume before it answers.
	for i := 1; i <= nodes; i++ {
		st, err := disk.OpenFileStore(lfs.StorePath(state, msg.NodeID(i)), efs.BlockSize, blocks)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	// The op starts once the mounts are done: when the fullest volume is
	// walked.
	var took time.Duration
	walked := 0
	measure := func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		took = proc.Now()
		for i := range cl.Nodes {
			rep, err := c.Recovery(i)
			if err != nil {
				return err
			}
			if rep.CleanAtOpen {
				t.Errorf("node %d: a store opened without a Sync read clean", i)
			}
			walked = max(walked, rep.Fsck.ChainBlocks)
		}
		return nil
	}
	if err := withCluster(state, m, "ls", measure); err != nil {
		t.Fatal(err)
	}
	if walked < blocks*3/4 {
		t.Fatalf("the fullest volume has %d of %d blocks chained; the test needs a full one", walked, blocks)
	}
	per := took / time.Duration(walked)
	t.Logf("dirty mount: %v for %d chained blocks, %v a block", took, walked, per)
	if per > mountAccesses*disk.DefaultLatency {
		t.Errorf("the mount's walk costs %v a block, past mountBound's %d accesses of %v",
			per, mountAccesses, disk.DefaultLatency)
	}
}

// fullCluster makes a cluster of nodes volumes of blocks blocks and fills
// it with eight files written a block at a time in turn until the volumes
// are full: on each node their chains interleave, so no read is sequential.
func fullCluster(t *testing.T, nodes, blocks int) (string, *manifest) {
	t.Helper()
	state := filepath.Join(t.TempDir(), "cluster")
	if _, err := runQuiet(t, "-dir", state, "init", "-nodes", fmt.Sprint(nodes), "-blocks", fmt.Sprint(blocks)); err != nil {
		t.Fatalf("init: %v", err)
	}
	m, err := load(state)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		const files = 8
		for f := 0; f < files; f++ {
			if _, err := c.Create(fmt.Sprint("f", f)); err != nil {
				return err
			}
		}
		block := bytes.Repeat([]byte("x"), core.PayloadBytes)
		for f := 0; c.SeqWrite(fmt.Sprint("f", f%files), block) == nil; f++ {
		}
		return nil
	}
	if err := withCluster(state, m, "put", fill); err != nil {
		t.Fatal(err)
	}
	return state, m
}

// opTime is the simulated time an invocation's output reports for its
// operation.
func opTime(t *testing.T, out string) time.Duration {
	t.Helper()
	return printedTime(t, out, `\[simulated time: (\S+)\]`)
}

// mountTime returns the simulated time at which out's mount line says the
// mounts ended.
func mountTime(t *testing.T, out string) time.Duration {
	t.Helper()
	return printedTime(t, out, `\[mount: (\S+) simulated`)
}

func printedTime(t *testing.T, out, pattern string) time.Duration {
	t.Helper()
	sm := regexp.MustCompile(pattern).FindStringSubmatch(out)
	if sm == nil {
		t.Fatalf("no simulated time in %q", out)
	}
	d, err := time.ParseDuration(sm[1])
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFsckWalksOverlap: fsck starts every node's walk before it awaits any,
// so on volumes filled alike it costs its mount's replay and about one walk,
// however many nodes there are, and a repair, which walks twice, about two.
// A check of one volume at a time would cost one walk per node. On stores
// left dirty the mounts walk, and fsck reports those walks instead of
// walking again; with one store dirty it checks the clean volumes while
// that mount walks. Either way it still costs about one walk.
func TestFsckWalksOverlap(t *testing.T) {
	const nodes = 4
	state, _ := fullCluster(t, nodes, 512)
	out, err := runQuiet(t, "-dir", state, "fsck")
	if err != nil || strings.Count(out, ": clean") != nodes {
		t.Fatalf("fsck: %v\n%s", err, out)
	}
	check, replay := opTime(t, out), mountTime(t, out)
	out, err = runQuiet(t, "-dir", state, "fsck", "-repair")
	if err != nil || strings.Count(out, ": clean") != nodes {
		t.Fatalf("fsck -repair: %v\n%s", err, out)
	}
	repair := opTime(t, out)
	// The slowest walk, measured by one node's check alone after the mount.
	var one time.Duration
	measure := func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		lc := lfs.NewClient(proc, cl.Net, 0, "one")
		defer lc.C.Close()
		for _, n := range cl.Nodes {
			start := proc.Now()
			call, err := lc.Start(n.Addr(), lfs.CheckReq{})
			if err != nil {
				return err
			}
			if _, err := lfs.Reply[lfs.CheckResp](lc.AwaitWalk(call, 512)); err != nil {
				return err
			}
			one = max(one, proc.Now()-start)
		}
		return nil
	}
	m, err := load(state)
	if err != nil {
		t.Fatal(err)
	}
	if err := withCluster(state, m, "ls", measure); err != nil {
		t.Fatal(err)
	}
	t.Logf("slowest walk %v; fsck %v (replay %v), fsck -repair %v on %d nodes", one, check, replay, repair, nodes)
	// A round trip per node is a few milliseconds; a walk is seconds.
	bound := replay + one + time.Duration(nodes)*10*time.Millisecond
	if check > bound || repair > bound+one {
		t.Errorf("fsck %v and fsck -repair %v on %d nodes, past a replay of %v and one and two walks of %v", check, repair, nodes, replay, one)
	}

	for _, dirty := range [][]int{{1, 2, 3, 4}, {2}} {
		// Opened and closed without a Sync, as a killed process leaves it.
		for _, id := range dirty {
			st, err := disk.OpenFileStore(lfs.StorePath(state, msg.NodeID(id)), efs.BlockSize, 512)
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
		}
		out, err = runQuiet(t, "-dir", state, "fsck")
		if err != nil || strings.Count(out, ": clean") != nodes || !strings.Contains(out, fmt.Sprintf(" %d of %d volumes walked]", len(dirty), nodes)) {
			t.Fatalf("fsck on %d dirty stores: %v\n%s", len(dirty), err, out)
		}
		if took := opTime(t, out); took > bound {
			t.Errorf("fsck on %d dirty stores took %v, past %v: it walked a volume after its mount walked", len(dirty), took, bound)
		}
	}
}

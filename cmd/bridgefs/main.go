// Command bridgefs is a usable command-line interface to a persistent
// simulated Bridge cluster. Each node's disk lives in a durable store in a
// state directory (node<ID>.disk, the format bridge.Config.DataDir uses),
// written in place; manifest.json holds the geometry and the Bridge
// directory. Every invocation boots the cluster, mounts the volumes —
// replaying each journal, and walking a volume whose store a killed
// invocation, or a walk that found problems, left dirty — performs one
// operation, syncs, and rewrites the manifest, so files survive across
// invocations. fsck checks every volume.
//
// Usage:
//
//	bridgefs -dir STATE init [-nodes 8] [-blocks 8192]
//	bridgefs -dir STATE put LOCAL NAME      store a host file
//	bridgefs -dir STATE get NAME LOCAL      retrieve to a host file
//	bridgefs -dir STATE cat NAME            write contents to stdout
//	bridgefs -dir STATE ls                  list files
//	bridgefs -dir STATE rm NAME             delete
//	bridgefs -dir STATE cp SRC DST          parallel copy tool
//	bridgefs -dir STATE sort SRC DST        parallel merge sort tool
//	bridgefs -dir STATE grep NAME PATTERN   parallel search tool
//	bridgefs -dir STATE wc NAME             parallel summary tool
//	bridgefs -dir STATE fsck [-repair]      check every volume
//	bridgefs -dir STATE info                cluster structure
//
// Every command but init reports its mount and every operation the
// simulated time it took on the modeled hardware (15 ms Wren-class disks,
// Butterfly-class messaging).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
	"bridge/internal/tools"
)

type manifest struct {
	Nodes      int
	DiskBlocks int
	Dir        core.DirSnapshot
}

const manifestName = "manifest.json"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bridgefs:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("bridgefs", flag.ContinueOnError)
	dir := fs.String("dir", "", "cluster state directory (required)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	args := fs.Args()
	if *dir == "" || len(args) == 0 {
		fs.Usage()
		return errors.New("need -dir and a subcommand")
	}
	cmd, rest := args[0], args[1:]

	if cmd == "init" {
		return initCluster(*dir, rest)
	}
	m, err := load(*dir)
	if err != nil {
		return err
	}
	op, err := makeOp(cmd, rest)
	if err != nil {
		return err
	}
	return withCluster(*dir, m, cmd, op)
}

func initCluster(dir string, args []string) error {
	fs := flag.NewFlagSet("init", flag.ContinueOnError)
	nodes := fs.Int("nodes", 8, "storage nodes")
	blocks := fs.Int("blocks", 8192, "blocks per node disk (1 KB each)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return fmt.Errorf("%s already contains a cluster", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m := &manifest{Nodes: *nodes, DiskBlocks: *blocks}
	// The stores do not exist yet, so every node formats its volume.
	return withCluster(dir, m, "init", func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		fmt.Printf("initialized %d-node Bridge cluster (%d KB per disk) in %s\n", *nodes, *blocks, dir)
		return nil
	})
}

// load reads the manifest and checks that every node's store is there: a
// missing one would be formatted blank under a directory that names files
// on it.
func load(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("no cluster in %s (run init first): %w", dir, err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("corrupt manifest: %w", err)
	}
	for i := 0; i < m.Nodes; i++ {
		if _, err := os.Stat(lfs.StorePath(dir, msg.NodeID(i+1))); err != nil {
			// Older versions kept whole-image files (disk<i>.img) instead.
			return nil, fmt.Errorf("node %d has no store: %w (a state directory of an older bridgefs cannot be read: init a new one)", i, err)
		}
	}
	return &m, nil
}

// withCluster boots the cluster on the stores in dir, waits for the mounts
// of subcommand cmd (init formats, so it has none), runs op as a client
// process, syncs every volume and then rewrites the manifest. A failed op
// is persisted like a successful one: the volumes changed in place, so the
// manifest must name what they hold.
func withCluster(dir string, m *manifest, cmd string, op opFunc) error {
	rt := sim.NewVirtual()
	// Each node formats its volume the first time and mounts it after.
	cl, err := core.StartCluster(rt, core.ClusterConfig{
		P: m.Nodes,
		Node: lfs.Config{
			DiskBlocks: m.DiskBlocks,
			DiskDir:    dir,
			// An intent journal of 1/64 of the disk, at least 32 blocks.
			EFS: efs.Options{JournalBlocks: max(m.DiskBlocks/64, 32)},
		},
		Server: core.Config{LFSTimeout: mountBound(m.DiskBlocks)},
	})
	if err != nil {
		return err
	}
	// Safe before Wait: under the virtual clock no process has run yet.
	cl.Servers[0].Restore(m.Dir)

	var opErr, syncErr error
	ran := false
	rt.Go("bridgefs", func(proc sim.Proc) {
		defer cl.Stop()
		// fsck waits for the mounts itself: it checks a volume that needs
		// no mount walk while another's mount walks, and it runs on
		// volumes whose walk found problems, to list them and, with
		// -repair, mend them.
		if cmd != "init" && cmd != "fsck" {
			if opErr = mount(proc, cl); opErr != nil {
				return
			}
		}
		c := cl.NewClient(proc, 0, "bridgefs-cli")
		defer c.Close()
		ran = true
		start := proc.Now()
		opErr = op(proc, cl, c)
		elapsed := proc.Now() - start
		if err := cl.SyncAll(proc); err != nil {
			syncErr = err
		}
		fmt.Printf("[simulated time: %v]\n", elapsed.Round(time.Microsecond))
	})
	err = rt.Wait()
	if cerr := cl.Close(); err == nil {
		err = cerr
	}
	switch {
	case err != nil:
		return err
	case !ran:
		return opErr
	case syncErr != nil:
		return errors.Join(opErr, syncErr)
	}
	m.Dir = cl.Servers[0].Snapshot()
	return errors.Join(opErr, saveManifest(dir, m))
}

// mountAccesses is how many disk accesses mountBound allows per block of
// the volume: the walk of a dirty mount makes one per chained block,
// whatever the layout (TestMountBoundCoversCheck), and the second is margin.
const mountAccesses = 2

// mountBound bounds a call that waits on a node's mount, on the server and
// in mount, so a dirty full volume of any size answers.
func mountBound(blocks int) time.Duration {
	return max(lfs.DefaultTimeout, time.Duration(blocks*mountAccesses)*disk.DefaultLatency)
}

// mount waits for every node's mount and prints when the last ended and how
// many volumes were walked. It fails on a walked volume that did not check
// clean, naming the node and what is wrong with it.
func mount(proc sim.Proc, cl *core.Cluster) error {
	c := cl.NewClient(proc, 0, "bridgefs-mount")
	defer c.Close()
	c.SetTimeout(mountBound(cl.Nodes[0].Disk.Config().NumBlocks))
	walked := 0
	for i := range cl.Nodes {
		rep, err := c.Recovery(i)
		if err == nil && !rep.CleanAtOpen {
			walked++
			if err = mountErr(rep); err == nil && !rep.Fsck.OK() {
				err = fmt.Errorf("volume failed its mount walk (bridgefs fsck lists it): %s", strings.Join(rep.Fsck.Problems, "; "))
			}
		}
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	printMount(proc.Now(), walked, len(cl.Nodes))
	return nil
}

// mountErr reports a mount walk that could not run to its end.
func mountErr(rep lfs.RecoveryReport) error {
	if rep.FsckErr != "" {
		return fmt.Errorf("checking the volume: %s", rep.FsckErr)
	}
	return nil
}

func printMount(at time.Duration, walked, nodes int) {
	fmt.Printf("[mount: %.2fs simulated, %d of %d volumes walked]\n", at.Seconds(), walked, nodes)
}

// fsckResult is one node's part of fsck: when its mount report arrived,
// whether the mount walked the volume, and the volume's check.
type fsckResult struct {
	lfs.CheckResp
	mounted time.Duration
	walked  bool
	err     error
}

// fsckNode waits for node n's mount report and checks its volume. A volume
// its mount walked is not walked again unless it is to be repaired: the
// mount's report is its check.
func fsckNode(p sim.Proc, net *msg.Network, n *lfs.Node, repair bool) (r fsckResult) {
	lc := lfs.NewClient(p, net, 0, fmt.Sprintf("bridgefs-fsck%d", n.ID))
	defer lc.C.Close()
	blocks := int64(n.Disk.Config().NumBlocks)
	call, err := lc.Start(n.Addr(), lfs.RecoveryReq{})
	if err != nil {
		return fsckResult{err: err}
	}
	rec, err := lfs.Reply[lfs.RecoveryResp](lc.AwaitWalk(call, blocks))
	if err != nil {
		return fsckResult{err: err}
	}
	r.mounted, r.walked = p.Now(), !rec.Report.CleanAtOpen
	if r.walked && !repair {
		r.Report, r.err = rec.Report.Fsck, mountErr(rec.Report)
		return r
	}
	if call, r.err = lc.Start(n.Addr(), lfs.CheckReq{Repair: repair}); r.err != nil {
		return r
	}
	if repair {
		blocks *= 2 // to repair, then to check
	}
	r.CheckResp, r.err = lfs.Reply[lfs.CheckResp](lc.AwaitWalk(call, blocks))
	return r
}

// saveManifest replaces the manifest crash-safely: it is written to a temp
// file in the same directory, fsynced, renamed over the old one, and the
// directory is fsynced. A host crash at any point leaves the old manifest
// or the new one, never a torn mix.
func saveManifest(dir string, m *manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, manifestName)
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(raw)
	if err = errors.Join(err, f.Sync(), f.Close()); err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

type opFunc func(proc sim.Proc, cl *core.Cluster, c *core.Client) error

func makeOp(cmd string, args []string) (opFunc, error) {
	need := func(n int, usage string) error {
		if len(args) != n {
			return fmt.Errorf("usage: bridgefs -dir STATE %s", usage)
		}
		return nil
	}
	switch cmd {
	case "put":
		if err := need(2, "put LOCAL NAME"); err != nil {
			return nil, err
		}
		return func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			data, err := os.ReadFile(args[0])
			if err != nil {
				return err
			}
			if _, err := c.Create(args[1]); err != nil {
				return err
			}
			blocks := 0
			for off := 0; off < len(data); off += core.PayloadBytes {
				end := off + core.PayloadBytes
				if end > len(data) {
					end = len(data)
				}
				if err := c.SeqWrite(args[1], data[off:end]); err != nil {
					return err
				}
				blocks++
			}
			fmt.Printf("stored %q as %q: %d bytes in %d blocks across %d nodes\n",
				args[0], args[1], len(data), blocks, len(cl.Nodes))
			return nil
		}, nil
	case "get", "cat":
		wantArgs, usage := 2, "get NAME LOCAL"
		if cmd == "cat" {
			wantArgs, usage = 1, "cat NAME"
		}
		if err := need(wantArgs, usage); err != nil {
			return nil, err
		}
		return func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			if _, err := c.Open(args[0]); err != nil {
				return err
			}
			var data []byte
			for {
				blk, eof, err := c.SeqRead(args[0])
				if err != nil {
					return err
				}
				if eof {
					break
				}
				data = append(data, blk...)
			}
			if cmd == "cat" {
				_, err := os.Stdout.Write(data)
				return err
			}
			if err := os.WriteFile(args[1], data, 0o644); err != nil {
				return err
			}
			fmt.Printf("retrieved %q to %q: %d bytes\n", args[0], args[1], len(data))
			return nil
		}, nil
	case "ls":
		if err := need(0, "ls"); err != nil {
			return nil, err
		}
		return lsOp, nil
	case "rm":
		if err := need(1, "rm NAME"); err != nil {
			return nil, err
		}
		return func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			freed, err := c.Delete(args[0])
			if err != nil {
				return err
			}
			fmt.Printf("deleted %q: %d blocks freed\n", args[0], freed)
			return nil
		}, nil
	case "cp":
		if err := need(2, "cp SRC DST"); err != nil {
			return nil, err
		}
		return func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			st, err := tools.Copy(proc, c, args[0], args[1])
			if err != nil {
				return err
			}
			fmt.Printf("copied %q to %q: %d blocks with the parallel copy tool\n", args[0], args[1], st.Blocks)
			return nil
		}, nil
	case "sort":
		if err := need(2, "sort SRC DST"); err != nil {
			return nil, err
		}
		return func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			st, err := tools.Sort(proc, c, args[0], args[1], tools.SortOptions{})
			if err != nil {
				return err
			}
			fmt.Printf("sorted %q into %q: %d records (local sort %v, merge %v)\n",
				args[0], args[1], st.Records, st.LocalSort.Round(time.Millisecond), st.Merge.Round(time.Millisecond))
			return nil
		}, nil
	case "grep":
		if err := need(2, "grep NAME PATTERN"); err != nil {
			return nil, err
		}
		return func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			res, err := tools.Grep(proc, c, args[0], []byte(args[1]))
			if err != nil {
				return err
			}
			for _, match := range res.Matches {
				fmt.Printf("block %d offset %d\n", match.GlobalBlock, match.Offset)
			}
			fmt.Printf("%d matches in %d blocks\n", len(res.Matches), res.Blocks)
			return nil
		}, nil
	case "wc":
		if err := need(1, "wc NAME"); err != nil {
			return nil, err
		}
		return func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			res, err := tools.WC(proc, c, args[0])
			if err != nil {
				return err
			}
			fmt.Printf("%d lines, %d words, %d bytes in %d blocks\n", res.Lines, res.Words, res.Bytes, res.Blocks)
			return nil
		}, nil
	case "fsck":
		repair := len(args) == 1 && args[0] == "-repair"
		if !repair {
			if err := need(0, "fsck [-repair]"); err != nil {
				return nil, err
			}
		}
		// One process per node waits for the node's mount and checks its
		// volume, so the walks overlap, the mount walks too.
		return func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			res := make([]fsckResult, len(cl.Nodes))
			done := proc.Runtime().NewQueue("bridgefs-fsck")
			for i, n := range cl.Nodes {
				proc.Runtime().Go(fmt.Sprintf("bridgefs-fsck%d", i), func(p sim.Proc) {
					res[i] = fsckNode(p, cl.Net, n, repair)
					done.Send(i)
				})
			}
			var mounted time.Duration
			walked := 0
			for range cl.Nodes {
				done.Recv(proc)
			}
			for i, r := range res {
				if r.err != nil {
					return fmt.Errorf("node %d: %w", i, r.err)
				}
				mounted = max(mounted, r.mounted)
				if r.walked {
					walked++
				}
			}
			printMount(mounted, walked, len(cl.Nodes))
			bad := 0
			for i, r := range res {
				if r.Fixes > 0 {
					fmt.Printf("node %d: repaired %d bitmap entries\n", i, r.Fixes)
				}
				rep, status := r.Report, "clean"
				if !rep.OK() {
					status = fmt.Sprintf("%d PROBLEMS", len(rep.Problems))
					bad++
				}
				fmt.Printf("node %d: %d files, %d chained blocks: %s\n", i, rep.Files, rep.ChainBlocks, status)
				for _, p := range rep.Problems {
					fmt.Printf("    %s\n", p)
				}
			}
			if bad > 0 {
				return fmt.Errorf("%d of %d volumes have problems", bad, len(res))
			}
			return nil
		}, nil
	case "info":
		if err := need(0, "info"); err != nil {
			return nil, err
		}
		return func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			info, err := c.GetInfo()
			if err != nil {
				return err
			}
			fmt.Printf("Bridge cluster: %d storage nodes, server at %v\n", info.P, info.Server)
			lc := lfs.NewClient(proc, cl.Net, 0, "bridgefs-usage")
			defer lc.C.Close()
			for i, n := range cl.Nodes {
				total, free, err := lc.Usage(n.ID)
				if err != nil {
					return fmt.Errorf("node %d usage: %w", i, err)
				}
				fmt.Printf("  node %d (id %d): %d/%d blocks used\n", i, n.ID, total-free, total)
			}
			return nil
		}, nil
	default:
		return nil, fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// lsOp lists the directory through the server's List command and stats each
// entry for its current size.
func lsOp(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
	names, err := c.List()
	if err != nil {
		return err
	}
	if len(names) == 0 {
		fmt.Println("(no files)")
		return nil
	}
	for _, name := range names {
		meta, err := c.Stat(name)
		if err != nil {
			return err
		}
		fmt.Printf("%8d blocks  %-12s  %s\n", meta.Blocks, meta.Spec.Kind, name)
	}
	return nil
}

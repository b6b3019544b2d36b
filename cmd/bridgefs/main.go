// Command bridgefs is a usable command-line interface to a persistent
// simulated Bridge cluster. The cluster's disks live as image files in a
// state directory; every invocation boots the cluster, mounts the volumes,
// performs one operation, syncs, and saves the images back — so files
// survive across invocations.
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
//	bridgefs -dir STATE fsck [-repair]      per-volume consistency check
//	bridgefs -dir STATE info                cluster structure
//
// Every operation reports the simulated time it took on the modeled
// hardware (15 ms Wren-class disks, Butterfly-class messaging).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/sim"
	"bridge/internal/tools"
)

type manifest struct {
	Nodes      int
	DiskBlocks int
	Dir        core.DirSnapshot
}

// errStaleImage reports a leftover .tmp disk image: an earlier save was
// interrupted between writing the temp file and renaming it over the
// committed image. The committed image is intact; the temp file is trash.
var errStaleImage = errors.New("stale temporary disk image (an earlier save was interrupted)")

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
	m, disks, err := load(*dir)
	if err != nil {
		return err
	}
	op, err := makeOp(cmd, rest)
	if err != nil {
		return err
	}
	return withCluster(*dir, m, disks, op)
}

func initCluster(dir string, args []string) error {
	fs := flag.NewFlagSet("init", flag.ContinueOnError)
	nodes := fs.Int("nodes", 8, "storage nodes")
	blocks := fs.Int("blocks", 8192, "blocks per node disk (1 KB each)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
		return fmt.Errorf("%s already contains a cluster", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m := &manifest{Nodes: *nodes, DiskBlocks: *blocks}
	// Boot once with fresh disks so the volumes get formatted.
	err := withCluster(dir, m, nil, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		fmt.Printf("initialized %d-node Bridge cluster (%d KB per disk) in %s\n", *nodes, *blocks, dir)
		return nil
	})
	return err
}

func load(dir string) (*manifest, []*disk.Disk, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("no cluster in %s (run init first): %w", dir, err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, nil, fmt.Errorf("corrupt manifest: %w", err)
	}
	disks := make([]*disk.Disk, m.Nodes)
	for i := range disks {
		d := disk.New(disk.Config{
			NumBlocks: m.DiskBlocks,
			Timing:    disk.FixedTiming{Latency: 15 * time.Millisecond},
		})
		path := filepath.Join(dir, fmt.Sprintf("disk%d.img", i))
		if _, err := os.Stat(path + ".tmp"); err == nil {
			return nil, nil, fmt.Errorf("%w: %s.tmp — the committed %s is intact, remove the temp file to continue",
				errStaleImage, path, filepath.Base(path))
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, fmt.Errorf("opening disk image %d: %w", i, err)
		}
		// Every block is checksum-verified on the way in, so corruption of
		// an image at rest is caught here — naming the node and block —
		// rather than surfacing later as a mystery I/O error.
		err = d.LoadImageVerify(f, efs.ImageVerifier())
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("disk image %d (node %d): %w", i, i, err)
		}
		disks[i] = d
	}
	return &m, disks, nil
}

// withCluster boots the cluster (formatting if disks is nil, mounting
// otherwise), runs op as a client process, syncs, and persists everything.
func withCluster(dir string, m *manifest, disks []*disk.Disk, op opFunc) error {
	rt := sim.NewVirtual()
	cl, err := core.StartCluster(rt, core.ClusterConfig{
		P: m.Nodes,
		Node: lfs.Config{
			DiskBlocks: m.DiskBlocks,
			Timing:     disk.FixedTiming{Latency: 15 * time.Millisecond},
		},
		Disks: disks,
	})
	if err != nil {
		return err
	}
	// Safe before Wait: under the virtual clock no process has run yet.
	cl.Servers[0].Restore(m.Dir)

	var opErr error
	rt.Go("bridgefs", func(proc sim.Proc) {
		defer cl.Stop()
		c := cl.NewClient(proc, 0, "bridgefs-cli")
		defer c.Close()
		start := proc.Now()
		opErr = op(proc, cl, c)
		elapsed := proc.Now() - start
		// Flush LFS metadata so the images are consistent.
		if err := cl.SyncAll(proc); err != nil && opErr == nil {
			opErr = err
		}
		fmt.Printf("[simulated time: %v]\n", elapsed.Round(time.Microsecond))
	})
	if err := rt.Wait(); err != nil {
		return err
	}
	if opErr != nil {
		return opErr
	}
	// Persist: directory snapshot + disk images.
	m.Dir = cl.Servers[0].Snapshot()
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), raw, 0o644); err != nil {
		return err
	}
	for i, n := range cl.Nodes {
		path := filepath.Join(dir, fmt.Sprintf("disk%d.img", i))
		if err := saveImageAtomic(n.Disk, path); err != nil {
			return fmt.Errorf("saving disk image %d: %w", i, err)
		}
	}
	return nil
}

// saveImageAtomic persists a disk image crash-safely: the image is written
// to a temp file in the same directory, fsynced, renamed over the old
// image, and the directory is fsynced. A host crash at any point leaves
// either the old image or the new one — never a torn mix — plus at worst
// an orphaned .tmp file, which load reports as errStaleImage.
func saveImageAtomic(d *disk.Disk, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = d.SaveImage(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	df, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = df.Sync()
	if cerr := df.Close(); err == nil {
		err = cerr
	}
	return err
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
		return func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			lc := lfs.NewClient(proc, cl.Net, 0, "bridgefs-fsck")
			defer lc.C.Close()
			bad := 0
			for i, id := range cl.NodeIDs() {
				var rep efs.CheckReport
				var err error
				blocks := int64(cl.Nodes[i].Disk.Config().NumBlocks)
				if repair {
					var fixes int
					rep, fixes, err = lc.Repair(id, blocks)
					if err == nil && fixes > 0 {
						fmt.Printf("node %d: repaired %d bitmap entries\n", i, fixes)
					}
				} else {
					rep, err = lc.Check(id, blocks)
				}
				if err != nil {
					return fmt.Errorf("node %d: %w", i, err)
				}
				status := "clean"
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
				return fmt.Errorf("%d of %d volumes have problems", bad, len(cl.NodeIDs()))
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

package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/sim"
	"bridge/internal/workload"
)

// ServerScalingRow measures aggregate naive-interface throughput for one
// Bridge Server count under concurrent clients — the paper's sketched
// remedy for the central server: "If requests to the server are frequent
// enough to cause a bottleneck, the same functionality could be provided
// by a distributed collection of processes."
type ServerScalingRow struct {
	Servers   int
	Clients   int
	Makespan  time.Duration
	RecPerSec float64 // aggregate across all clients
}

// ServerScaling runs `clients` concurrent naive readers, each over its own
// file, against 1, 2, and 4 Bridge Server processes on a p-node cluster.
func ServerScaling(cfg Config, p, clients int) ([]ServerScalingRow, error) {
	if err := cfg.prepare(p); err != nil {
		return nil, err
	}
	perClient := cfg.Records / clients
	if perClient < 8 {
		perClient = 8
	}
	var rows []ServerScalingRow
	for _, servers := range []int{1, 2, 4} {
		var makespan time.Duration
		err := runOn(core.ClusterConfig{
			P: p,
			Node: lfs.Config{
				DiskBlocks: perClient*clients*2/p + 512,
				Timing:     disk.FixedTiming{Latency: cfg.DiskLatency},
				EFS:        efs.Options{CacheBlocks: cfg.CacheBlocks},
			},
			Servers: servers,
			Server:  core.Config{LFSTimeout: cfg.LFSTimeout},
		}, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			// Fill one file per client.
			for i := 0; i < clients; i++ {
				recs := workload.Records(cfg.Seed+int64(i), perClient, cfg.PayloadBytes)
				if err := workload.Fill(proc, c, fmt.Sprintf("f%d", i), recs); err != nil {
					return err
				}
			}
			// Concurrent readers.
			done := proc.Runtime().NewQueue("ss-done")
			start := proc.Now()
			for i := 0; i < clients; i++ {
				i := i
				proc.Go(fmt.Sprintf("reader%d", i), func(rp sim.Proc) {
					rc := cl.NewClient(rp, 0, fmt.Sprintf("ss-cli%d", i))
					defer rc.Close()
					name := fmt.Sprintf("f%d", i)
					if _, err := rc.Open(name); err != nil {
						done.Send(err)
						return
					}
					for {
						_, eof, err := rc.SeqRead(name)
						if err != nil || eof {
							done.Send(err)
							return
						}
					}
				})
			}
			err := awaitAll(proc, done, clients)
			makespan = proc.Now() - start
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("serverscaling k=%d: %w", servers, err)
		}
		rows = append(rows, ServerScalingRow{
			Servers:   servers,
			Clients:   clients,
			Makespan:  makespan,
			RecPerSec: recPerSec(perClient*clients, makespan),
		})
	}
	return rows, nil
}

// RenderServerScaling writes the comparison.
func RenderServerScaling(w io.Writer, rows []ServerScalingRow, p int) {
	fmt.Fprintf(w, "Ablation A6: distributed Bridge Servers (%d nodes, %d concurrent naive readers)\n", p, rows[0].Clients)
	fmt.Fprintln(w, `(the paper: "the same functionality could be provided by a distributed collection of processes")`)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "servers\tmakespan\taggregate rec/s")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%.0f\n", r.Servers, fmtDur(r.Makespan), r.RecPerSec)
	}
	tw.Flush()
}

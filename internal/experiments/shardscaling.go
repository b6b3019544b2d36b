package experiments

import (
	"fmt"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/lfs"
	"bridge/internal/sim"
)

// metaScalingReplicas fixes the consensus group size while the shard
// count varies, so the comparison isolates sharding from replication
// overhead.
const metaScalingReplicas = 3

// MetadataScalingRow measures aggregate directory-op throughput — a
// create / stat / stat / delete cycle per file — for one shard-group
// count under concurrent clients. Disks run at zero latency so the
// measurement isolates the metadata path: each shard leader's request
// CPU plus its group's commit round trips, which is exactly what
// sharding multiplies.
type MetadataScalingRow struct {
	Shards    int
	Replicas  int
	Clients   int
	Ops       int
	Makespan  time.Duration
	OpsPerSec float64 // aggregate across all clients
}

// MetadataScaling runs `clients` concurrent metadata-churn clients —
// each cycling create/stat/stat/delete over its own slice of the
// namespace — against the requested shard-group counts at a fixed
// replication factor. The namespace is shared (names hash across all
// groups), so the workload spreads over every shard without
// hand-placing files.
func MetadataScaling(cfg Config, p, clients, filesPerClient int, shardCounts []int) ([]MetadataScalingRow, error) {
	if err := cfg.prepare(p); err != nil {
		return nil, err
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 4}
	}
	var rows []MetadataScalingRow
	for _, shards := range shardCounts {
		var makespan time.Duration
		err := runOn(core.ClusterConfig{
			P: p,
			Node: lfs.Config{
				DiskBlocks: 4096,
				Timing:     disk.FixedTiming{},
			},
			Servers:  shards,
			Replicas: metaScalingReplicas,
			Server:   core.Config{LFSTimeout: cfg.LFSTimeout},
		}, func(proc sim.Proc, cl *core.Cluster, _ *core.Client) error {
			done := proc.Runtime().NewQueue("ms-done")
			start := proc.Now()
			for i := 0; i < clients; i++ {
				i := i
				proc.Go(fmt.Sprintf("churn%d", i), func(cp sim.Proc) {
					c := cl.NewClient(cp, 0, fmt.Sprintf("ms-cli%d", i))
					defer c.Close()
					for f := 0; f < filesPerClient; f++ {
						name := fmt.Sprintf("m%d-%d", i, f)
						if _, err := c.Create(name); err != nil {
							done.Send(fmt.Errorf("create %s: %w", name, err))
							return
						}
						for s := 0; s < 2; s++ {
							if _, err := c.Stat(name); err != nil {
								done.Send(fmt.Errorf("stat %s: %w", name, err))
								return
							}
						}
						if _, err := c.Delete(name); err != nil {
							done.Send(fmt.Errorf("delete %s: %w", name, err))
							return
						}
					}
					done.Send(nil)
				})
			}
			err := awaitAll(proc, done, clients)
			makespan = proc.Now() - start
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("metadatascaling shards=%d: %w", shards, err)
		}
		ops := clients * filesPerClient * 4 // create + 2 stats + delete
		rows = append(rows, MetadataScalingRow{
			Shards:    shards,
			Replicas:  metaScalingReplicas,
			Clients:   clients,
			Ops:       ops,
			Makespan:  makespan,
			OpsPerSec: recPerSec(ops, makespan),
		})
	}
	return rows, nil
}

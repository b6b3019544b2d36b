// The PR 9 failover experiment: how much virtual time metadata
// availability loses when the replicated Bridge Server's leader is
// killed. The client keeps retrying through redirects, so the measured
// window — kill to first successful post-election operation — is the
// whole client-observed outage.
package experiments

import (
	"errors"
	"fmt"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/sim"
)

// failoverReplicas is the consensus group size the experiment boots: the
// useful minimum, tolerating one fault.
const failoverReplicas = 3

// FailoverPoint is one processor count's metadata-HA measurements.
type FailoverPoint struct {
	P        int
	Replicas int

	// SteadyOpen is a leader-served Open before any fault: the baseline
	// metadata round trip in replicated mode.
	SteadyOpen time.Duration
	// FailoverTime is the client-observed outage: virtual time from the
	// leader's kill-9 to the first successful post-election Open,
	// including the client's timeout against the dead leader, the
	// election, and the new leader's takeover replay.
	FailoverTime time.Duration
}

// Failover measures the leader-kill outage across cfg.Ps.
func Failover(cfg Config) ([]FailoverPoint, error) {
	return sweep(cfg, failoverAt)
}

func failoverAt(p int, cfg Config) (FailoverPoint, error) {
	pt := FailoverPoint{P: p, Replicas: failoverReplicas}
	perNode := cfg.Records/p + 1
	err := runOn(core.ClusterConfig{
		P: p,
		Node: lfs.Config{
			DiskBlocks: perNode*2 + 256,
			Timing:     disk.FixedTiming{Latency: cfg.DiskLatency},
			EFS:        efs.Options{CacheBlocks: cfg.CacheBlocks, JournalBlocks: cfg.JournalBlocks},
		},
		Replicas: failoverReplicas,
		Server:   core.Config{LFSTimeout: cfg.LFSTimeout},
	}, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		if _, err := c.Create("f"); err != nil {
			return err
		}
		for i := 0; i < 32; i++ {
			if err := c.SeqWrite("f", make([]byte, cfg.PayloadBytes)); err != nil {
				return err
			}
		}
		start := proc.Now()
		if _, err := c.Open("f"); err != nil {
			return err
		}
		pt.SteadyOpen = proc.Now() - start
		lead := cl.LeaderServer(0)
		if lead < 0 {
			return errors.New("no leader after a served workload")
		}
		killAt := proc.Now()
		cl.CrashServer(0, lead, killAt)
		// One call: the replicated client absorbs the dead-leader
		// timeout, the redirects, and the new leader's takeover.
		if _, err := c.Open("f"); err != nil {
			return fmt.Errorf("open after leader kill: %w", err)
		}
		pt.FailoverTime = proc.Now() - killAt
		return nil
	})
	return pt, err
}

package experiments

import (
	"fmt"
	"time"

	"bridge/internal/core"
	"bridge/internal/seqfs"
	"bridge/internal/sim"
	"bridge/internal/tools"
)

// UtilizationRow reports how busy the disks were during one copy method —
// the paper's scaling criterion made measurable: "algorithms will continue
// to scale so long as all the disks are busy all the time (assuming they
// are doing useful work)".
type UtilizationRow struct {
	Method  string
	Elapsed time.Duration
	// MinBusy/AvgBusy/MaxBusy are per-disk busy-time fractions of the
	// elapsed interval.
	MinBusy float64
	AvgBusy float64
	MaxBusy float64
}

// Utilization copies the standard file through the naive interface and as
// a tool on a p-node cluster, measuring per-disk busy fractions.
func Utilization(cfg Config, p int) ([]UtilizationRow, error) {
	if err := cfg.prepare(p); err != nil {
		return nil, err
	}
	var rows []UtilizationRow
	for _, method := range []string{"naive interface", "copy tool"} {
		method := method
		var row UtilizationRow
		err := runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			if err := fill(proc, c, cfg, "src"); err != nil {
				return err
			}
			before := make([]time.Duration, len(cl.Nodes))
			for i, n := range cl.Nodes {
				before[i] = n.Disk.Stats().GetTime("disk.busy")
			}
			start := proc.Now()
			var err error
			if method == "copy tool" {
				_, err = tools.Copy(proc, c, "src", "dst")
			} else {
				_, err = seqfs.Copy(proc, c, "src", "dst")
			}
			if err != nil {
				return err
			}
			elapsed := proc.Now() - start
			row = UtilizationRow{Method: method, Elapsed: elapsed, MinBusy: 1}
			for i, n := range cl.Nodes {
				busy := n.Disk.Stats().GetTime("disk.busy") - before[i]
				frac := float64(busy) / float64(elapsed)
				row.AvgBusy += frac / float64(len(cl.Nodes))
				if frac < row.MinBusy {
					row.MinBusy = frac
				}
				if frac > row.MaxBusy {
					row.MaxBusy = frac
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("utilization (%s): %w", method, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func utilizationReport(rows []UtilizationRow, cfg Config) Report {
	pct := func(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }
	return Report{
		Tables: []Table{{
			Caption: fmt.Sprintf("Per-disk busy time during a %d-record copy on %d nodes:", cfg.Records, fixedP),
			Header:  []string{"method", "elapsed", "disk busy min", "avg", "max"},
			Rows: cells(rows, func(r UtilizationRow) []string {
				return []string{r.Method, fmtDur(r.Elapsed), pct(r.MinBusy), pct(r.AvgBusy), pct(r.MaxBusy)}
			}),
		}},
		Summary: fmt.Sprintf("the naive copy keeps the disks %s busy on average, the tool %s (each disk %s–%s)",
			pct(rows[0].AvgBusy), pct(rows[1].AvgBusy), pct(rows[1].MinBusy), pct(rows[1].MaxBusy)),
	}
}

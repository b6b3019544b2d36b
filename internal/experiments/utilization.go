package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
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

// RenderUtilization writes the comparison.
func RenderUtilization(w io.Writer, rows []UtilizationRow, p, records int) {
	fmt.Fprintf(w, "Disk utilization during a %d-record copy on %d nodes\n", records, p)
	fmt.Fprintln(w, `(the paper: "algorithms will continue to scale so long as all the disks are busy all the time")`)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "method\telapsed\tdisk busy min\tavg\tmax")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.0f%%\t%.0f%%\t%.0f%%\n",
			r.Method, fmtDur(r.Elapsed), r.MinBusy*100, r.AvgBusy*100, r.MaxBusy*100)
	}
	tw.Flush()
}

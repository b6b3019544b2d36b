package experiments

import (
	"fmt"
	"time"

	"bridge/internal/core"
	"bridge/internal/sim"
	"bridge/internal/tools"
)

// PaperCopyTimes are Table 3's published copy times for the 10 MB file.
var PaperCopyTimes = map[int]time.Duration{
	2:  time.Duration(311.6 * float64(time.Second)),
	4:  156 * time.Second,
	8:  time.Duration(79.3 * float64(time.Second)),
	16: 41 * time.Second,
	32: time.Duration(21.6 * float64(time.Second)),
}

// PaperSortTimes are Table 4's published phase times (local sort, merge,
// total) for the 10 MB file.
var PaperSortTimes = map[int][3]time.Duration{
	2:  {350 * time.Minute, 17 * time.Minute, 367 * time.Minute},
	4:  {98 * time.Minute, 16 * time.Minute, 111 * time.Minute},
	8:  {24 * time.Minute, 11 * time.Minute, 35 * time.Minute},
	16: {6 * time.Minute, 7 * time.Minute, 13 * time.Minute},
	32: {time.Duration(0.67 * float64(time.Minute)), time.Duration(4.45 * float64(time.Minute)), time.Duration(5.12 * float64(time.Minute))},
}

// CopyRow is one Table 3 measurement.
type CopyRow struct {
	P         int
	Time      time.Duration
	RecPerSec float64
	// Speedup is relative to the smallest measured p, scaled so the
	// smallest p has speedup == its processor count (as in "near-linear
	// speedup as processors are added").
	Speedup float64
	// PaperTime and PaperSpeedup are the published values for shape
	// comparison (only meaningful at full scale).
	PaperTime    time.Duration
	PaperSpeedup float64
}

// Table3Copy reproduces Table 3 and the copy records/second figure: the
// copy tool over the standard file for each processor count.
func Table3Copy(cfg Config) ([]CopyRow, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	rows := make([]CopyRow, 0, len(cfg.Ps))
	for _, p := range cfg.Ps {
		var elapsed time.Duration
		err := runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			if err := fill(proc, c, cfg, "src"); err != nil {
				return err
			}
			start := proc.Now()
			st, err := tools.Copy(proc, c, "src", "dst")
			if err != nil {
				return err
			}
			if st.Blocks != int64(cfg.Records) {
				return fmt.Errorf("copied %d blocks, want %d", st.Blocks, cfg.Records)
			}
			elapsed = proc.Now() - start
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("table3 p=%d: %w", p, err)
		}
		rows = append(rows, CopyRow{
			P:         p,
			Time:      elapsed,
			RecPerSec: recPerSec(cfg.Records, elapsed),
			PaperTime: PaperCopyTimes[p],
		})
	}
	if len(rows) > 0 {
		base := rows[0]
		for i := range rows {
			rows[i].Speedup = float64(base.Time) / float64(rows[i].Time) * float64(base.P)
			if base.PaperTime > 0 && rows[i].PaperTime > 0 {
				rows[i].PaperSpeedup = float64(base.PaperTime) / float64(rows[i].PaperTime) * float64(base.P)
			}
		}
	}
	return rows, nil
}

// SortRow is one Table 4 measurement.
type SortRow struct {
	P          int
	Local      time.Duration
	Merge      time.Duration
	Total      time.Duration
	RecPerSec  float64
	PaperLocal time.Duration
	PaperMerge time.Duration
	PaperTotal time.Duration
}

// Table4Sort reproduces Table 4 and the sort figures: the merge sort tool
// over the standard file for each (power-of-two) processor count,
// reporting the local-sort and merge phases separately.
func Table4Sort(cfg Config) ([]SortRow, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	rows := make([]SortRow, 0, len(cfg.Ps))
	for _, p := range cfg.Ps {
		if p&(p-1) != 0 {
			continue // sort tool requires powers of two
		}
		var st tools.SortStats
		err := runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
			if err := fill(proc, c, cfg, "src"); err != nil {
				return err
			}
			var err error
			st, err = tools.Sort(proc, c, "src", "sorted", tools.SortOptions{InCore: cfg.InCore})
			if err != nil {
				return err
			}
			if st.Records != int64(cfg.Records) {
				return fmt.Errorf("sorted %d records, want %d", st.Records, cfg.Records)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("table4 p=%d: %w", p, err)
		}
		total := st.LocalSort + st.Merge
		paper := PaperSortTimes[p]
		rows = append(rows, SortRow{
			P:          p,
			Local:      st.LocalSort,
			Merge:      st.Merge,
			Total:      total,
			RecPerSec:  recPerSec(cfg.Records, total),
			PaperLocal: paper[0],
			PaperMerge: paper[1],
			PaperTotal: paper[2],
		})
	}
	return rows, nil
}

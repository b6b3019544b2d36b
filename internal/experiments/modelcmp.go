package experiments

import (
	"fmt"
	"math"
	"time"

	"bridge/internal/model"
)

// ModelRow compares one predicted quantity against its simulation.
type ModelRow struct {
	Name      string
	Predicted time.Duration
	Measured  time.Duration
}

// Err returns the relative error of the prediction.
func (r ModelRow) Err() float64 {
	if r.Measured == 0 {
		return 0
	}
	return float64(r.Predicted-r.Measured) / float64(r.Measured)
}

// ModelComparison validates the closed-form analytical model (the
// counterpart of the paper's reference [17]) against the simulated Tables
// 2–4 measured at cfg, the way the paper reports that "the results we
// obtain for the constants on the Butterfly agree quite nicely with
// empirical data".
func ModelComparison(cfg Config, t2 *Table2Result, copyRows []CopyRow, sortRows []SortRow) ([]ModelRow, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	m := modelAt(cfg)
	var rows []ModelRow
	for _, pt := range t2.Points {
		rows = append(rows,
			ModelRow{fmt.Sprintf("naive read/blk (p=%d)", pt.P), m.NaiveRead(), pt.ReadPerBlock},
			ModelRow{fmt.Sprintf("naive write/blk (p=%d)", pt.P), m.NaiveWrite(), pt.WritePerBlock},
			ModelRow{fmt.Sprintf("delete total (p=%d)", pt.P), m.DeleteTotal(cfg.Records, pt.P), pt.DeleteTotal},
		)
	}
	for _, r := range copyRows {
		rows = append(rows, ModelRow{fmt.Sprintf("copy tool (p=%d)", r.P), m.CopyTime(cfg.Records, r.P), r.Time})
	}
	for _, r := range sortRows {
		rows = append(rows,
			ModelRow{fmt.Sprintf("sort local (p=%d)", r.P), m.SortLocalTime(cfg.Records, r.P), r.Local},
			ModelRow{fmt.Sprintf("sort merge (p=%d)", r.P), m.SortMergeTime(cfg.Records, r.P), r.Merge},
		)
	}
	return rows, nil
}

// modelAt is the analytical model of the machine cfg simulates.
func modelAt(cfg Config) model.Params {
	m := model.Default()
	m.InCore = cfg.InCore
	m.DiskLatency = cfg.DiskLatency
	if cfg.CacheBlocks > 0 {
		m.CacheBlocks = cfg.CacheBlocks
	}
	return m
}

// measureModel compares the model against the run's own Tables 2–4.
func measureModel(r *Run, cfg Config) ([]ModelRow, error) {
	t2, err := Result[*Table2Result](r, "table2")
	if err != nil {
		return nil, err
	}
	copyRows, err := Result[[]CopyRow](r, "table3")
	if err != nil {
		return nil, err
	}
	sortRows, err := Result[[]SortRow](r, "table4")
	if err != nil {
		return nil, err
	}
	return ModelComparison(cfg, t2, copyRows, sortRows)
}

func modelReport(rows []ModelRow, cfg Config) Report {
	worst := 0.0
	for _, r := range rows {
		worst = math.Max(worst, math.Abs(r.Err()))
	}
	sat := modelAt(cfg).MergeSaturationWidth()
	return Report{
		Tables: []Table{{
			Caption: "Closed forms (`internal/model`) against discrete events:",
			Header:  []string{"quantity", "predicted", "simulated", "error"},
			Rows: cells(rows, func(r ModelRow) []string {
				return []string{r.Name, fmtDur(r.Predicted), fmtDur(r.Measured), fmt.Sprintf("%+.0f%%", r.Err()*100)}
			}),
			Note: fmt.Sprintf("Token-ring merge saturation width (model): t ≈ %d writers per group.", sat),
		}},
		Summary: fmt.Sprintf("every quantity within %.0f%% of the simulation; the merge token saturates at t ≈ %d", math.Ceil(worst*100), sat),
	}
}

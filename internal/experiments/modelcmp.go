package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
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
// counterpart of the paper's reference [17]) against the simulator, the
// way the paper reports that "the results we obtain for the constants on
// the Butterfly agree quite nicely with empirical data".
func ModelComparison(cfg Config) ([]ModelRow, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	m := model.Default()
	m.InCore = cfg.InCore
	m.DiskLatency = cfg.DiskLatency
	var rows []ModelRow

	t2, err := Table2(cfg)
	if err != nil {
		return nil, err
	}
	for _, pt := range t2.Points {
		rows = append(rows,
			ModelRow{fmt.Sprintf("naive read/blk (p=%d)", pt.P), m.NaiveRead(), pt.ReadPerBlock},
			ModelRow{fmt.Sprintf("naive write/blk (p=%d)", pt.P), m.NaiveWrite(), pt.WritePerBlock},
			ModelRow{fmt.Sprintf("delete total (p=%d)", pt.P), m.DeleteTotal(cfg.Records, pt.P), pt.DeleteTotal},
		)
	}
	t3, err := Table3Copy(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range t3 {
		rows = append(rows, ModelRow{fmt.Sprintf("copy tool (p=%d)", r.P), m.CopyTime(cfg.Records, r.P), r.Time})
	}
	t4, err := Table4Sort(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range t4 {
		rows = append(rows,
			ModelRow{fmt.Sprintf("sort local (p=%d)", r.P), m.SortLocalTime(cfg.Records, r.P), r.Local},
			ModelRow{fmt.Sprintf("sort merge (p=%d)", r.P), m.SortMergeTime(cfg.Records, r.P), r.Merge},
		)
	}
	return rows, nil
}

// RenderModel writes the comparison table.
func RenderModel(w io.Writer, rows []ModelRow, saturation int) {
	fmt.Fprintln(w, "Analytical model vs simulation (closed forms vs discrete events)")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "quantity\tpredicted\tsimulated\terror")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%+.0f%%\n", r.Name, fmtDur(r.Predicted), fmtDur(r.Measured), r.Err()*100)
	}
	tw.Flush()
	fmt.Fprintf(w, "token-ring merge saturation width (model): t ≈ %d writers per group\n", saturation)
}

package model_test

import (
	"fmt"
	"testing"
	"time"

	"bridge/internal/experiments"
	"bridge/internal/model"
)

// within asserts |got-want| <= frac*want.
func within(t *testing.T, name string, got, want time.Duration, frac float64) {
	t.Helper()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > frac*float64(want) {
		t.Errorf("%s: model %v vs simulated %v (>%.0f%% off)", name, got, want, frac*100)
	}
}

func simCfg() experiments.Config {
	cfg := experiments.PaperScale()
	cfg.Ps = []int{2, 8}
	cfg.Records = 512
	cfg.InCore = 64
	return cfg
}

func TestModelMatchesSimulatedBasicOps(t *testing.T) {
	cfg := simCfg()
	res, err := experiments.Table2(cfg)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	m := model.Default()
	for _, pt := range res.Points {
		within(t, fmt.Sprintf("read p=%d", pt.P), m.NaiveRead(), pt.ReadPerBlock, 0.35)
		within(t, fmt.Sprintf("write p=%d", pt.P), m.NaiveWrite(), pt.WritePerBlock, 0.25)
		within(t, fmt.Sprintf("delete p=%d", pt.P), m.DeleteTotal(cfg.Records, pt.P), pt.DeleteTotal, 0.25)
	}
}

func TestModelMatchesSimulatedCopy(t *testing.T) {
	cfg := simCfg()
	rows, err := experiments.Table3Copy(cfg)
	if err != nil {
		t.Fatalf("Table3Copy: %v", err)
	}
	m := model.Default()
	for _, r := range rows {
		within(t, fmt.Sprintf("copy p=%d", r.P), m.CopyTime(cfg.Records, r.P), r.Time, 0.30)
	}
}

func TestModelMatchesSimulatedSort(t *testing.T) {
	// Every column outgrows the EFS block cache, as at paper scale (at 512
	// records a p=8 column is read back from the cache and the model's
	// track reads overstate its local phase by 10%). Neither row's run
	// count is a power of two — 9 runs a node at p=2, 64/64/2 at p=8 — so
	// the local phase's merge order shows: pairing runs in order would put
	// the model 22-24% above the simulator.
	cfg := simCfg()
	cfg.Records = 1040
	rows, err := experiments.Table4Sort(cfg)
	if err != nil {
		t.Fatalf("Table4Sort: %v", err)
	}
	m := model.Default()
	m.InCore = cfg.InCore
	for _, r := range rows {
		// Within 5% at this scale, 2% at paper scale.
		within(t, fmt.Sprintf("sort local p=%d", r.P), m.SortLocalTime(cfg.Records, r.P), r.Local, 0.10)
		within(t, fmt.Sprintf("sort merge p=%d", r.P), m.SortMergeTime(cfg.Records, r.P), r.Merge, 0.10)
	}
}

func TestMergeSaturationWidthIsModest(t *testing.T) {
	// The paper: "32 nodes is clearly well below the point at which the
	// merge phase ... would be unable to take advantage of additional
	// parallelism" for their constants; for ours the writers saturate
	// earlier because the token cycle is cheap. The bound must exist
	// and be sane.
	m := model.Default()
	w := m.MergeSaturationWidth()
	if w < 2 || w > 64 {
		t.Errorf("MergeSaturationWidth = %d, want a small positive bound", w)
	}
	// Sanity: cycles are positive and finite.
	if m.TokenCycle() <= 0 || m.WriterCycle() <= 0 {
		t.Error("non-positive cycles")
	}
}

func TestModelScalingShapes(t *testing.T) {
	m := model.Default()
	// Copy halves (roughly) as p doubles.
	c2, c4 := m.CopyTime(10240, 2), m.CopyTime(10240, 4)
	if ratio := float64(c2) / float64(c4); ratio < 1.8 || ratio > 2.2 {
		t.Errorf("copy 2->4 ratio = %.2f, want ~2", ratio)
	}
	// Local sort collapses when n/p fits in core.
	m.InCore = 512
	big := m.SortLocalTime(10240, 2)    // many passes
	small := m.SortLocalTime(10240, 32) // single pass
	if float64(big)/float64(small) < 16 {
		t.Errorf("local sort superlinearity missing: %v -> %v", big, small)
	}
	// Delete is hyperbolic in p.
	if m.DeleteTotal(1024, 4) >= m.DeleteTotal(1024, 2) {
		t.Error("delete not improving with p")
	}
}

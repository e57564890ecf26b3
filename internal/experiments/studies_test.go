package experiments

import (
	"io"
	"testing"
)

func TestPredictionErrorStudy(t *testing.T) {
	cfg := smallConfig()
	cfg.Out = io.Discard
	cfg.Slots = 6 * 7 * 24
	points, coca, err := PredictionErrorStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}
	// The zero-error oracle is exactly the paper's PerfectHP and must be
	// the cheapest forecaster variant (or within noise of it).
	perfect := points[0]
	if perfect.MAPE != 0 {
		t.Fatalf("first point should be the perfect oracle, MAPE = %v", perfect.MAPE)
	}
	for _, p := range points[1:4] { // noisy oracles with growing error
		if p.MAPE <= 0 {
			t.Errorf("%s: MAPE = %v", p.Forecaster, p.MAPE)
		}
	}
	// Forecast noise moves PerfectHP's cost only within a band: its
	// λ-proportional allocation heuristic, not forecast quality, dominates
	// (noise can even soften pathologically tight caps slightly).
	worst := points[3]
	if ratio := worst.AvgCostUSD / perfect.AvgCostUSD; ratio < 0.9 || ratio > 1.3 {
		t.Errorf("40%%-error PerfectHP at %vx of perfect — outside the plausible band", ratio)
	}
	// COCA needs no forecasts and must beat every PerfectHP variant.
	for _, p := range points {
		if p.CostVsCoca < 1 {
			t.Errorf("%s: PerfectHP (%v) beat COCA (%v)", p.Forecaster, p.AvgCostUSD, coca.AvgHourlyCostUSD)
		}
	}
}

func TestDelayValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Out = io.Discard
	cfg.Slots = 4 * 7 * 24
	points, meanErr, err := DelayValidation(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 4 {
		t.Fatalf("too few validation points: %d", len(points))
	}
	// The analytic M/G/1/PS model should match the event-driven simulation
	// within a few percent on average.
	if meanErr > 0.10 {
		t.Errorf("mean relative error %v — Eq. (4) model not matching the simulator", meanErr)
	}
	for _, p := range points {
		if p.Analytic <= 0 || p.Simulated <= 0 {
			t.Errorf("degenerate point: %+v", p)
		}
	}
}

func TestRenewableShareSeries(t *testing.T) {
	cfg := smallConfig()
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	sc, _, err := cfg.Scenario(false)
	if err != nil {
		t.Fatal(err)
	}
	_, run, err := runCOCA(sc, midGrid(cfg.VGrid))
	if err != nil {
		t.Fatal(err)
	}
	shares := RenewableShareSeries(sc, run)
	if len(shares) == 0 {
		t.Fatal("no months")
	}
	var total float64
	for _, s := range shares {
		if s < 0 || s > 1 {
			t.Fatalf("share %v outside [0,1]", s)
		}
		total += s
	}
	// On-site was calibrated to ≈ 20% of consumption.
	avg := total / float64(len(shares))
	if avg < 0.10 || avg > 0.35 {
		t.Errorf("average on-site share %v far from the 20%% calibration", avg)
	}
}

func TestGeoStudy(t *testing.T) {
	cfg := smallConfig()
	cfg.Out = io.Discard
	cfg.Slots = 4 * 7 * 24
	res, err := GeoStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SmartCostUSD <= 0 || res.NaiveCostUSD <= 0 {
		t.Fatalf("degenerate costs: %+v", res)
	}
	// Both arms are pinned bit-for-bit: any change to the split, the site
	// solve or the charge arithmetic shows up here.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"SmartCostUSD", res.SmartCostUSD, 5408.136454459694},
		{"NaiveCostUSD", res.NaiveCostUSD, 6075.461485033702},
		{"SmartGridKWh", res.SmartGridKWh, 53622.78301323212},
		{"NaiveGridKWh", res.NaiveGridKWh, 53414.044193297486},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if res.SmartCostUSD > res.NaiveCostUSD*(1+1e-9) {
		t.Errorf("geo-aware split (%v) worse than proportional (%v)",
			res.SmartCostUSD, res.NaiveCostUSD)
	}
	var shareSum float64
	for _, s := range res.SiteLoadShare {
		if s < 0 || s > 1 {
			t.Fatalf("share %v outside [0,1]", s)
		}
		shareSum += s
	}
	if shareSum < 0.99 || shareSum > 1.01 {
		t.Errorf("shares sum to %v", shareSum)
	}
}

package experiments

import (
	"math"

	"repro/internal/baseline"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/reqsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// PredictionPoint is one forecaster of the prediction-error study.
type PredictionPoint struct {
	Forecaster string
	MAPE       float64
	AvgCostUSD float64
	CostVsCoca float64 // cost relative to COCA's neutral operating point
}

// PredictionErrorStudy extends the Fig. 3 comparison to *imperfect*
// predictions: PerfectHP's hourly caps are allocated from increasingly
// inaccurate forecasts while COCA, needing no forecasts, stays fixed. The
// paper assumes the 48-hour predictions are perfect and notes longer
// horizons "exhibit large errors"; this study quantifies the erosion.
func PredictionErrorStudy(cfg Config) ([]PredictionPoint, sim.Summary, error) {
	if err := cfg.fill(); err != nil {
		return nil, sim.Summary{}, err
	}
	sc, _, err := cfg.Scenario(false)
	if err != nil {
		return nil, sim.Summary{}, err
	}
	_, coca, err := tuneV(sc, cfg.VGrid, cfg.workers(), cfg.pool())
	if err != nil {
		return nil, sim.Summary{}, err
	}
	forecasters := []predict.Forecaster{
		predict.NoisyOracle{ErrFrac: 0, Seed: cfg.Seed},
		predict.NoisyOracle{ErrFrac: 0.10, Seed: cfg.Seed},
		predict.NoisyOracle{ErrFrac: 0.20, Seed: cfg.Seed},
		predict.NoisyOracle{ErrFrac: 0.40, Seed: cfg.Seed},
		predict.ProfileEWMA{Alpha: 0.3},
		predict.SeasonalNaive{Period: trace.HoursPerWeek},
	}
	// Every forecaster carries its own seed (fixed per arm, not drawn from
	// shared state), so the arms fan out deterministically.
	out, err := mapIndexed(cfg.workers(), cfg.pool(), len(forecasters), func(i int) (PredictionPoint, error) {
		f := forecasters[i]
		forecast := f.Forecast(sc.Workload)
		php, err := baseline.NewPerfectHPWithForecast(sc, 48, forecast)
		if err != nil {
			return PredictionPoint{}, err
		}
		res, err := sim.Run(sc, php)
		if err != nil {
			return PredictionPoint{}, err
		}
		s := sim.Summarize(sc, res)
		return PredictionPoint{
			Forecaster: f.Name(),
			MAPE:       predict.MAPE(sc.Workload, forecast),
			AvgCostUSD: s.AvgHourlyCostUSD,
			CostVsCoca: s.AvgHourlyCostUSD / coca.AvgHourlyCostUSD,
		}, nil
	})
	if err != nil {
		return nil, sim.Summary{}, err
	}
	if cfg.Out != nil {
		t := report.NewTable("Prediction-error study: PerfectHP under imperfect forecasts vs COCA",
			"forecaster", "MAPE", "avg hourly cost ($)", "vs COCA")
		for _, p := range out {
			t.AddRow(p.Forecaster, p.MAPE, p.AvgCostUSD, p.CostVsCoca)
		}
		t.AddRow("COCA (no forecasts)", 0.0, coca.AvgHourlyCostUSD, 1.0)
		if err := t.Render(cfg.Out); err != nil {
			return nil, sim.Summary{}, err
		}
	}
	return out, coca, nil
}

// DelayValidationPoint compares one operated slot's analytic delay cost
// against an event-driven M/G/1/PS measurement.
type DelayValidationPoint struct {
	Slot      int
	Analytic  float64 // Eq. (4): m·λs/(x − λs)
	Simulated float64 // event-driven measurement scaled to the fleet
	RelErr    float64
}

// DelayValidation closes the loop between the analytic delay model and the
// discrete-event substrate: it runs COCA, samples operated slots, and
// simulates one representative server of each slot's configuration as an
// M/G/1/PS queue (exponential requirements, the §5.1 100 ms mean at full
// speed), comparing measured mean jobs-in-system against Eq. (4). It
// returns the points and the mean absolute relative error.
func DelayValidation(cfg Config, samples int) ([]DelayValidationPoint, float64, error) {
	if err := cfg.fill(); err != nil {
		return nil, 0, err
	}
	if samples <= 0 {
		samples = 12
	}
	sc, _, err := cfg.Scenario(false)
	if err != nil {
		return nil, 0, err
	}
	v, _, err := tuneV(sc, cfg.VGrid, cfg.workers(), cfg.pool())
	if err != nil {
		return nil, 0, err
	}
	_, run, err := runCOCA(sc, v)
	if err != nil {
		return nil, 0, err
	}
	var points []DelayValidationPoint
	var errSum float64
	step := len(run.Records) / samples
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(run.Records) && len(points) < samples; i += step {
		rec := run.Records[i]
		if rec.Active == 0 || rec.Speed == 0 || rec.LambdaRPS <= 0 {
			continue
		}
		perServer := rec.LambdaRPS / float64(rec.Active)
		rate := sc.Server.Rate(rec.Speed)
		res, err := reqsim.Simulate(reqsim.Config{
			ArrivalRPS: perServer,
			ServiceRPS: rate,
			Service:    reqsim.ExponentialService(1),
			Horizon:    40000,
			Warmup:     2000,
			Seed:       cfg.Seed + uint64(i),
		})
		if err != nil {
			return nil, 0, err
		}
		analytic := rec.DelayCost
		simulated := res.MeanJobs * float64(rec.Active)
		rel := math.Abs(simulated-analytic) / analytic
		points = append(points, DelayValidationPoint{
			Slot: rec.Slot, Analytic: analytic, Simulated: simulated, RelErr: rel,
		})
		errSum += rel
	}
	if len(points) == 0 {
		return nil, 0, nil
	}
	mean := errSum / float64(len(points))
	if cfg.Out != nil {
		t := report.NewTable("Delay-model validation: Eq. (4) vs event-driven M/G/1/PS",
			"slot", "analytic d", "simulated d", "rel. error")
		for _, p := range points {
			t.AddRow(p.Slot, p.Analytic, p.Simulated, p.RelErr)
		}
		if err := t.Render(cfg.Out); err != nil {
			return nil, 0, err
		}
		cfg.printf("mean absolute relative error: %.2f%%\n", 100*mean)
	}
	return points, mean, nil
}

// RenewableShareSeries reports, per calendar month, the fraction of
// facility energy covered by on-site renewables under a COCA run — a
// sustainability diagnostic used by the README and examples.
func RenewableShareSeries(sc *sim.Scenario, run *sim.Result) []float64 {
	months := len(run.Records) / (30 * 24)
	if months == 0 {
		months = 1
	}
	out := make([]float64, 0, months)
	chunk := len(run.Records) / months
	for m := 0; m < months; m++ {
		lo, hi := m*chunk, (m+1)*chunk
		if m == months-1 {
			hi = len(run.Records)
		}
		var energy, grid float64
		for _, rec := range run.Records[lo:hi] {
			energy += rec.EnergyKWh
			grid += rec.GridKWh
		}
		if energy > 0 {
			out = append(out, 1-grid/energy)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

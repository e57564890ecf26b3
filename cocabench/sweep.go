package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lyapunov"
	"repro/internal/sim"
	"repro/internal/telemetry/span"
	"repro/internal/trace"
	"repro/internal/workpool"
)

// The sweep workload computes experiments.Fig2 at paper scale: a year of
// hourly slots, 216,000 servers, the default V grid plus the carbon-unaware
// arm (fanned over 2 workers) and the quarterly-V arm. It runs sim,
// core.Policy and the p3 homogeneous solver and never touches gsd or
// loadbalance.
//
// The program builds the Fig. 2 scenario itself (experiments.Config.
// Scenario), and across scenario seeds its cost level swings by about ±13%.
// So the sweep always runs the paper's year, seed 2012, and the benchmark
// seed does not change its inputs: run-to-run differences are then the
// program's alone.
const (
	sweepServers = 216000
	sweepWorkers = 2
	sweepSeed    = 2012 // the paper's trace year, experiments.Default's seed
)

func sweepConfig() experiments.Config {
	return experiments.Config{Slots: trace.HoursPerYear, N: sweepServers, Seed: sweepSeed, Workers: sweepWorkers}
}

// fig2Digest hashes every number of a Fig. 2 result.
func fig2Digest(r experiments.Fig2Result) uint64 {
	d := newDigest()
	for _, p := range r.Sweep {
		d.floats(p.V, p.AvgCostUSD, p.AvgDeficitKWh, p.BudgetUsed)
	}
	d.floats(r.UnawareAvgCostUSD)
	d.floats(r.VaryingVs...)
	d.floats(r.MovingAvgCost...)
	d.floats(r.MovingAvgDeficit...)
	return d.sum()
}

// checkFig2 verifies the shape of a Fig. 2 result: one row per V, every
// number finite, costs positive, the quarterly arm present.
func checkFig2(r experiments.Fig2Result) error {
	if len(r.Sweep) == 0 || len(r.VaryingVs) != 4 || len(r.MovingAvgCost) != trace.HoursPerYear {
		return fmt.Errorf("fig2: %d sweep rows, %d quarterly Vs, %d moving-average points",
			len(r.Sweep), len(r.VaryingVs), len(r.MovingAvgCost))
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, p := range r.Sweep {
		if !finite(p.AvgCostUSD) || !finite(p.AvgDeficitKWh) || !finite(p.BudgetUsed) || p.AvgCostUSD <= 0 {
			return fmt.Errorf("fig2: bad row %+v", p)
		}
	}
	if !finite(r.UnawareAvgCostUSD) || r.UnawareAvgCostUSD <= 0 {
		return fmt.Errorf("fig2: unaware cost %v", r.UnawareAvgCostUSD)
	}
	return nil
}

// tracedPolicy decorates a sim.Policy with a core.decide span per Decide,
// parented under the sweep point's sim.run span.
type tracedPolicy struct {
	inner  sim.Policy
	parent *span.Span
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Decide(obs sim.Observation) (sim.Config, error) {
	sp := p.parent.Child("core.decide")
	c, err := p.inner.Decide(obs)
	sp.End()
	return c, err
}

func (p *tracedPolicy) Observe(fb sim.Feedback) { p.inner.Observe(fb) }

// sweepArm runs one sweep point — COCA under the schedule over the
// scenario — inside a sim.run span on tr.
func sweepArm(sc *sim.Scenario, sched lyapunov.VSchedule, tr *span.Tracer) (*sim.Result, error) {
	sp := tr.StartRoot("sim.run")
	defer sp.End()
	p, err := core.New(core.FromScenario(sc, sched))
	if err != nil {
		return nil, err
	}
	return sim.Run(sc, &tracedPolicy{inner: p, parent: sp})
}

// tracedSweepRep is what one traced sweep measured.
type tracedSweepRep struct {
	sums         []sim.Summary
	fanPointUS   float64       // Σ time of the fanned points
	fanUS        float64       // wall time of the fan
	pointUS      float64       // Σ time of every point, the quarterly arm included
	wall         time.Duration // the whole rep, scenario build included
	decidedSlots int
}

// tracedSweep recomputes the Fig. 2 arms of ref point by point through
// Config.Scenario and sim.Run: the constant-V arms and the unaware arm fan
// over the pool (worker w records on tracers[w]), then the quarterly arm
// runs alone, as Fig2 does.
func tracedSweep(cfg experiments.Config, ref experiments.Fig2Result, tracers []*span.Tracer) (tracedSweepRep, error) {
	var rep tracedSweepRep
	start := time.Now()
	sc, _, err := cfg.Scenario(false)
	if err != nil {
		return rep, err
	}
	vs := make([]float64, 0, len(ref.Sweep)+1)
	for _, p := range ref.Sweep {
		vs = append(vs, p.V)
	}
	vs = append(vs, 1e15) // Fig2's carbon-unaware reference
	rep.sums = make([]sim.Summary, len(vs))
	pointUS := make([]float64, len(vs))
	errs := make([]error, len(vs))
	fan := time.Now()
	workpool.FanID(sweepWorkers, len(vs), func(w, i int) {
		t0 := time.Now()
		r, err := sweepArm(sc, lyapunov.ConstantV(vs[i], 1, sc.Slots), tracers[w])
		pointUS[i] = us(time.Since(t0))
		if err != nil {
			errs[i] = err
			return
		}
		rep.sums[i] = sim.Summarize(sc, r)
	})
	rep.fanUS = us(time.Since(fan))
	for i, err := range errs {
		if err != nil {
			return rep, fmt.Errorf("sweep point V=%g: %w", vs[i], err)
		}
		rep.fanPointUS += pointUS[i]
	}
	rep.pointUS = rep.fanPointUS
	t0 := time.Now()
	if _, err := sweepArm(sc, lyapunov.VSchedule{T: sc.Slots / 4, Vs: ref.VaryingVs}, tracers[0]); err != nil {
		return rep, fmt.Errorf("quarterly arm: %w", err)
	}
	rep.pointUS += us(time.Since(t0))
	rep.wall = time.Since(start)
	rep.decidedSlots = (len(vs) + 1) * sc.Slots
	return rep, nil
}

func runSweep(o options) (*outcome, error) {
	out := &outcome{}
	heap := startHeapSampler()
	cfg := sweepConfig()
	tracers := make([]*span.Tracer, sweepWorkers)
	for i := range tracers {
		tracers[i] = span.NewTracer()
	}
	var (
		ref           experiments.Fig2Result
		refHash       uint64
		budgetPerSlot float64
		setups, walls []float64
		slotMS        []float64
		allocsPerSlot []float64
		peaks         []float64 // per untraced sweep: peak heap in use (MiB)
		reps          []tracedSweepRep
		lt            layerTimes
	)
	deadline := time.Now().Add(o.duration)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		if o.trace && i%2 == 1 && len(walls) > 0 {
			rep, err := tracedSweep(cfg, ref, tracers)
			if err != nil {
				return nil, err
			}
			points := len(rep.sums) + 1
			out.attempted += points
			for j, p := range ref.Sweep {
				s := rep.sums[j]
				if s.AvgHourlyCostUSD != p.AvgCostUSD || s.AvgDeficitKWh != p.AvgDeficitKWh || s.BudgetUsedFraction != p.BudgetUsed {
					out.failed++
					out.fail("traced sweep point V=%g differs from Fig2's row", p.V)
				}
			}
			if rep.sums[len(rep.sums)-1].AvgHourlyCostUSD != ref.UnawareAvgCostUSD {
				out.failed++
				out.fail("traced unaware arm differs from Fig2's")
			}
			reps = append(reps, rep)
			if err := lt.collect(filepath.Join(o.traceDir, "sweep.ndjson"), tracers...); err != nil {
				return nil, err
			}
			continue
		}
		runtime.GC() // start each repetition without the previous one's garbage
		heap.window()
		t0 := time.Now()
		sc, _, err := cfg.Scenario(false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		a0 := allocs()
		t1 := time.Now()
		res, err := experiments.Fig2(cfg)
		wall := time.Since(t1)
		a1 := allocs()
		peak := heap.window()
		points := len(res.Sweep) + 2 // the V grid, the unaware arm, the quarterly arm
		out.attempted += points
		if err == nil {
			err = checkFig2(res)
		}
		if err != nil {
			out.failed += points
			out.fail("%v", err)
			continue
		}
		if len(walls) == 0 {
			ref, refHash = res, fig2Digest(res)
			budgetPerSlot = sc.Portfolio.BudgetKWh(sc.Slots) / float64(sc.Slots)
		} else if h := fig2Digest(res); h != refHash {
			out.failed += points
			out.fail("Fig. 2 rows hash %016x, first sweep's %016x", h, refHash)
		}
		decided := float64(points * sc.Slots)
		walls = append(walls, wall.Seconds())
		peaks = append(peaks, peak)
		slotMS = append(slotMS, 1e3*wall.Seconds()/decided)
		allocsPerSlot = append(allocsPerSlot, float64(a1-a0)/decided)
	}
	heap.close()
	if len(walls) == 0 {
		return nil, fmt.Errorf("no sweep completed")
	}

	var cost, grid float64
	for _, p := range ref.Sweep {
		cost += p.AvgCostUSD
		grid += p.BudgetUsed * budgetPerSlot
	}
	n := float64(len(ref.Sweep))
	out.set("setup_s", median(setups), "s")
	out.set("slot_p50_ms", median(slotMS), "ms")
	out.set("slot_p90_ms", quantile(slotMS, 0.9), "ms")
	out.set("sweep_s", median(walls), "s")
	out.set("cost_usd_per_slot", cost/n, "USD")
	out.set("grid_kwh_per_slot", grid/n, "kWh")
	out.set("peak_heap_mb", median(peaks), "MB")
	out.set("allocs_per_slot", median(allocsPerSlot), "count")
	fmt.Fprintf(o.log, "sweep: %d untraced sweeps of %d points\n", len(walls), len(ref.Sweep)+2)
	if !o.trace {
		return out, nil
	}

	var tracedWalls []float64
	var decided, pointUS, fanPointUS, fanUS float64
	for _, rep := range reps {
		tracedWalls = append(tracedWalls, rep.wall.Seconds())
		decided += float64(rep.decidedSlots)
		pointUS += rep.pointUS
		fanPointUS += rep.fanPointUS
		fanUS += rep.fanUS
	}
	overhead := ratio(median(tracedWalls)-median(walls), median(walls))
	out.set("trace.overhead", overhead, "share")
	out.set("sim.slot_us", ratio(lt.totalUS["sim.run"], decided), "us")
	out.set("sim.self_us", ratio(lt.selfUS["sim.run"], decided), "us")
	out.set("core.decide_us", ratio(lt.totalUS["core.decide"], decided), "us")
	out.set("workpool.fan_efficiency", ratio(fanPointUS, sweepWorkers*fanUS), "share")
	checkSelfSum(out, lt, pointUS, overhead)
	return out, nil
}

package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/dcmodel"
	"repro/internal/geo"
	"repro/internal/gsd"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

// The fleet workload steps geo.Fleet at 99,840 servers: 9984 groups of 10
// servers over 256 sites (39 groups per site), one GSD chain per site
// fanned over 2 workers. It is a closed loop of Step+Settle. One episode
// is a fresh fleet fed a fixed fleetEpisode-slot schedule.
const (
	fleetGroups      = 9984
	fleetSites       = 256
	fleetIters       = 60 // GSD iterations per site solve
	fleetWorkers     = 2
	fleetEpisode     = 24 // slots per episode: one day
	fleetV           = 5e5
	fleetBeta        = 0.005
	fleetParitySlots = 3 // slots of the 1-worker parity run
	fleetSerialSlots = 8 // slots of the traced 1-worker pass
	fleetReplaySites = 2 // sites whose load split is replayed per traced slot
	fleetReplays     = 16
)

// fleetEpisodeResult is what one fleet episode measured.
type fleetEpisodeResult struct {
	setup     time.Duration // construction through the first (cold) slot
	wall      time.Duration // the whole episode, set-up included
	slotMS    []float64     // Step+Settle times of the timed slots
	tripUS    float64       // Σ Step+Settle time of every slot
	costUSD   float64
	gridKWh   float64
	prefix    uint64 // digest of the first fleetParitySlots slots
	hash      uint64 // digest of every slot and the final queues
	failed    int
	allocs    uint64
	stepMS    []float64 // per traced slot: Step wall time
	shardSecs []float64 // per traced slot: Σ shard solve seconds in the Step
}

// fleetHarness carries what a traced episode records.
type fleetHarness struct {
	tracer  *span.Tracer
	metrics *telemetry.FleetMetrics
	splits  *splitStats
	replayR *rng
}

// siteName is the name of fleet site i.
func siteName(i int) string { return fmt.Sprintf("f%03d", i) }

// shardSolveSeconds is Σ solve wall time over every site's shard.
func shardSolveSeconds(m *telemetry.FleetMetrics, sites []geo.FleetSite) float64 {
	var s float64
	for i := range sites {
		s += m.SiteSolveMetrics(sites[i].Name).SolveSeconds.Snapshot().Sum
	}
	return s
}

// runFleetEpisode builds a fresh fleet and steps it for the given number
// of slots on the given worker count.
// A failed Step counts as a failed slot and ends the episode (the fleet
// cannot settle it), with the check failure recorded in out.
func runFleetEpisode(in fleetInput, seed uint64, workers, slots int, hr *fleetHarness, out *outcome) (fleetEpisodeResult, error) {
	var res fleetEpisodeResult
	var tr *span.Tracer
	if hr != nil {
		tr = hr.tracer
	}
	start := time.Now()
	sites := buildFleetSites(in)
	f, err := geo.NewFleet(sites, fleetBeta, len(in.Lambda),
		gsd.Options{Delta: gsdDelta, MaxIters: fleetIters, Seed: seed})
	if err != nil {
		return res, err
	}
	if err := f.SetWorkers(workers); err != nil {
		return res, err
	}
	if hr != nil {
		f.Instrument(hr.metrics)
	}
	capRPS := f.TotalCapacityRPS()
	d := newDigest()
	queues := make([]float64, len(sites))
	var allocs0 uint64
	for t := 0; t < slots; t++ {
		if t == 1 {
			allocs0 = allocs()
		}
		lambda := capRPS * in.Lambda[t]
		for k := range queues {
			queues[k] = f.Queue(k)
		}
		var solve0 float64
		if hr != nil {
			solve0 = shardSolveSeconds(hr.metrics, sites)
		}
		t0 := time.Now()
		sp := tr.StartRoot("fleet.slot")
		stepSp := tr.Start("geo.step")
		so, err := f.Step(lambda, fleetV)
		stepSp.End()
		stepDur := time.Since(t0)
		if err != nil {
			sp.End()
			res.failed++
			out.fail("fleet slot %d: %v", t, err)
			break
		}
		settleSp := tr.Start("geo.settle")
		f.Settle(so)
		settleSp.End()
		sp.End()
		elapsed := time.Since(t0)
		res.tripUS += us(elapsed)
		if t == 0 {
			res.setup = time.Since(start)
		} else {
			res.slotMS = append(res.slotMS, ms(elapsed))
		}
		res.costUSD += so.TotalCostUSD
		res.gridKWh += so.TotalGridKWh
		d.floats(so.TotalCostUSD, so.TotalGridKWh)
		for _, s := range so.Sites {
			d.floats(s.LoadRPS, float64(s.Active), s.PowerKW, s.GridKWh, s.DelayCost, s.CostUSD, s.Value)
		}
		if t == fleetParitySlots-1 {
			res.prefix = d.sum()
		}
		if hr != nil {
			res.stepMS = append(res.stepMS, ms(stepDur))
			res.shardSecs = append(res.shardSecs, shardSolveSeconds(hr.metrics, sites)-solve0)
		}
		if hr != nil && hr.splits != nil {
			for j := 0; j < fleetReplaySites; j++ {
				k := hr.replayR.intn(len(sites))
				if err := replaySite(hr, &sites[k], in.Price[k][t], queues[k], lambda*sites[k].CapacityRPS()/capRPS, seed); err != nil {
					return res, err
				}
			}
		}
	}
	res.allocs = allocs() - allocs0
	res.wall = time.Since(start)
	for k := range sites {
		d.floats(f.Queue(k))
	}
	res.hash = d.sum()
	return res, nil
}

// replaySite rebuilds site k's P3 instance for the slot just stepped (the
// fleet keeps its per-site decisions internal), decides it with a GSD
// chain of the fleet's settings, and replays load-split proposals from
// that decision.
func replaySite(hr *fleetHarness, site *geo.FleetSite, price, queue, mu float64, seed uint64) error {
	we, wd := dcmodel.P3Weights(fleetV, queue, price, fleetBeta)
	p := &dcmodel.SlotProblem{
		Cluster: site.Cluster, LambdaRPS: mu, We: we, Wd: wd,
		OnsiteKW: site.Portfolio.OnsiteKW.Values[0],
	}
	res, err := gsd.Solve(p, gsd.Options{Delta: gsdDelta, MaxIters: fleetIters, Seed: seed})
	if err != nil {
		return fmt.Errorf("fleet replay: %w", err)
	}
	return hr.splits.replay(p, res.Solution.Speeds, hr.replayR, fleetReplays)
}

func runFleet(o options) (*outcome, error) {
	out := &outcome{}
	heap := startHeapSampler()
	in := genFleet(o.seed, fleetSites, fleetGroups/fleetSites, fleetEpisode)

	// Parity: a short 1-worker run must match the 2-worker episodes.
	serial, err := runFleetEpisode(in, o.seed, 1, fleetParitySlots, nil, out)
	if err != nil {
		return nil, err
	}
	out.attempted += fleetParitySlots
	out.failed += serial.failed

	reg := telemetry.NewRegistry()
	hr := &fleetHarness{
		tracer:  span.NewTracer(),
		metrics: telemetry.NewFleetMetrics(reg, "fleet"),
		splits:  &splitStats{},
		replayR: newRNG(o.seed ^ 0x5EED),
	}
	var plain, traced []fleetEpisodeResult
	var tracedWallUS float64
	var peaks []float64 // per untraced episode: peak heap in use (MiB)
	deadline := time.Now().Add(o.duration)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		var h *fleetHarness
		if o.trace && i%2 == 1 {
			h = hr
		}
		runtime.GC() // start each repetition without the previous one's garbage
		heap.window()
		ep, err := runFleetEpisode(in, o.seed, fleetWorkers, fleetEpisode, h, out)
		if err != nil {
			return nil, err
		}
		out.attempted += fleetEpisode
		out.failed += ep.failed
		if h != nil {
			traced = append(traced, ep)
			tracedWallUS += ep.tripUS
		} else {
			plain = append(plain, ep)
			peaks = append(peaks, heap.window())
		}
	}

	// The traced 1-worker pass: with no fan-out, a step is exactly Σ shard
	// solves plus the fleet's own work, so geo.self_ms and gsd.share come
	// from it.
	var serialTraced fleetEpisodeResult
	if o.trace {
		serialMetrics := telemetry.NewFleetMetrics(telemetry.NewRegistry(), "fleet")
		serialTraced, err = runFleetEpisode(in, o.seed, 1, fleetSerialSlots, &fleetHarness{metrics: serialMetrics}, out)
		if err != nil {
			return nil, err
		}
		out.attempted += fleetSerialSlots
		out.failed += serialTraced.failed
	}
	heap.close()

	all := append(append([]fleetEpisodeResult(nil), plain...), traced...)
	for _, ep := range all[1:] {
		if ep.hash != all[0].hash {
			out.fail("fleet episode hash %016x differs from the first episode's %016x", ep.hash, all[0].hash)
		}
	}
	if serial.prefix != all[0].prefix {
		out.fail("1-worker fleet run hash %016x differs from the %d-worker run's %016x",
			serial.prefix, fleetWorkers, all[0].prefix)
	}
	if o.trace && serialTraced.prefix != all[0].prefix {
		out.fail("traced 1-worker fleet hash %016x differs from the %d-worker run's %016x",
			serialTraced.prefix, fleetWorkers, all[0].prefix)
	}

	var setups, walls, slotMS []float64
	var allocsSum uint64
	for _, ep := range plain {
		setups = append(setups, ep.setup.Seconds())
		walls = append(walls, ep.wall.Seconds())
		slotMS = append(slotMS, ep.slotMS...)
		allocsSum += ep.allocs
	}
	out.set("setup_s", median(setups), "s")
	out.set("slot_p50_ms", median(slotMS), "ms")
	out.set("slot_p90_ms", quantile(slotMS, 0.9), "ms")
	out.set("sweep_s", median(walls), "s")
	out.set("cost_usd_per_slot", all[0].costUSD/fleetEpisode, "USD")
	out.set("grid_kwh_per_slot", all[0].gridKWh/fleetEpisode, "kWh")
	out.set("peak_heap_mb", median(peaks), "MB")
	out.set("allocs_per_slot", ratio(float64(allocsSum), float64(len(slotMS))), "count")
	fmt.Fprintf(o.log, "fleet: %d untraced episodes of %d slots, %d timed slot samples\n",
		len(plain), fleetEpisode, len(slotMS))
	if !o.trace {
		return out, nil
	}

	var tracedMS []float64
	for _, ep := range traced {
		tracedMS = append(tracedMS, ep.slotMS...)
	}
	overhead := ratio(median(tracedMS)-median(slotMS), median(slotMS))
	var lt layerTimes
	if err := lt.collect(filepath.Join(o.traceDir, "fleet.ndjson"), hr.tracer); err != nil {
		return nil, err
	}
	out.set("trace.overhead", overhead, "share")
	out.set("geo.step_ms", lt.meanMS("geo.step"), "ms")
	out.set("geo.settle_ms", lt.meanMS("geo.settle"), "ms")

	// Fan efficiency and shard balance over the 2-worker traced episodes.
	var stepSecs, shardSecs float64
	for _, ep := range traced {
		stepSecs += sum(ep.stepMS) / 1e3
		shardSecs += sum(ep.shardSecs)
	}
	out.set("geo.fan_efficiency", ratio(shardSecs, fleetWorkers*stepSecs), "share")
	var perSite []float64
	var solves, iters, accepted, cold float64
	for i := 0; i < fleetSites; i++ {
		sm := hr.metrics.SiteSolveMetrics(siteName(i))
		perSite = append(perSite, sm.SolveSeconds.Snapshot().Sum)
		solves += sm.Solves.Value()
		iters += sm.Iterations.Value()
		accepted += sm.Accepted.Value()
		cold += sm.ColdFallbacks.Value()
	}
	out.set("geo.shard_imbalance", ratio(slices.Max(perSite), mean(perSite)), "ratio")
	out.set("gsd.solve_ms", 1e3*ratio(sum(perSite), solves), "ms")
	out.set("gsd.iterations_per_solve", ratio(iters, solves), "count")
	out.set("gsd.accept_rate", ratio(accepted, iters), "share")
	out.set("gsd.cold_fallbacks", cold, "count")

	// The 1-worker pass: geo's own time per step and GSD's share of a slot.
	var selfMS []float64
	for i := range serialTraced.stepMS {
		selfMS = append(selfMS, serialTraced.stepMS[i]-1e3*serialTraced.shardSecs[i])
	}
	out.set("geo.self_ms", mean(selfMS), "ms")
	out.set("gsd.share", ratio(sum(serialTraced.shardSecs), serialTraced.tripUS/1e6), "share")
	hr.splits.report(out)
	checkSelfSum(out, lt, tracedWallUS, overhead)
	return out, nil
}

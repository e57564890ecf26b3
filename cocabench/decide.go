package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dcmodel"
	"repro/internal/gsd"
	"repro/internal/lyapunov"
	"repro/internal/p3"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

// The decide workload is the daemon's slot loop: a closed loop in which one
// caller POSTs each slot's SlotInput to /decide and waits for the reply
// (slot t+1's queue depends on slot t settling). The handler is called
// in-process, with no sockets. One episode is a fresh service fed a fixed
// stream of decideEpisode slots, so each episode's /state hash and decision
// quality are a pure function of the seed.
const (
	decideServers   = 216000 // the paper's fleet
	decideGroups    = 200    // the group count of the paper's GSD experiments
	decideEpisode   = 72     // slots per episode: three daily frames
	decideFrameLen  = 24     // slots per V frame
	decideFrames    = 365    // cocad's default horizon
	decideV         = 5e5    // cocad defaults from here on
	decideBeta      = 0.02
	decideAlpha     = 1.0
	decideSwitchKWh = 0.231
	gsdDelta        = 1e4
	decideIters     = 150
	decideReplays   = 16 // load-split proposals replayed per traced slot

	// decideChains is how many GSD chain seeds a run rotates through. At
	// cocad's defaults one chain's decisions vary by about ±12% in cost
	// from seed to seed (LAYERS.md), so decision quality is the mean over
	// the chains. Episode e runs chain e mod decideChains.
	decideChains = 8
)

// chainSeed is the GSD seed of chain c under the benchmark seed.
func chainSeed(seed uint64, c int) uint64 {
	return newRNG(seed ^ uint64(c+1)<<40).next()
}

// decideEpisodeResult is what one episode measured.
type decideEpisodeResult struct {
	setup   time.Duration // construction through the first (cold) slot
	wall    time.Duration // the whole episode, set-up included
	slotMS  []float64     // round-trip times of the timed slots (all but the first)
	tripUS  float64       // Σ round-trip time of every slot, the first included
	costUSD float64       // Σ per-slot total cost
	gridKWh float64       // Σ per-slot grid draw
	hash    string        // the /state hash after the last slot
	failed  int
	allocs  uint64 // heap objects allocated by the timed slots
}

// decideHarness carries what a traced episode records.
type decideHarness struct {
	tracer  *span.Tracer
	solve   *telemetry.SolveMetrics
	splits  *splitStats
	replayR *rng
}

// newDecideSolver is cocad's GSD solver for one chain seed, reporting to
// the traced run's solve metrics when hr is non-nil.
func newDecideSolver(gsdSeed uint64, hr *decideHarness) *gsd.Solver {
	opts := gsd.Options{Delta: gsdDelta, MaxIters: decideIters, Seed: gsdSeed}
	if hr != nil {
		opts.Metrics = hr.solve
	}
	return &gsd.Solver{Opts: opts}
}

// runDecideEpisode builds a fresh service around solver and drives one
// episode through its /decide handler. Failed slots and output-check
// failures go to res.failed and out.
func runDecideEpisode(in decideStream, solver p3.Solver, hr *decideHarness, out *outcome) (decideEpisodeResult, error) {
	var res decideEpisodeResult
	var tr *span.Tracer
	if hr != nil {
		tr = hr.tracer
	}
	reg := telemetry.NewRegistry()
	start := time.Now()
	cluster := dcmodel.HeterogeneousCluster(decideServers, decideGroups)
	checked := &checkedSolver{inner: solver, tracer: tr}
	ctrl, err := core.NewController(cluster, decideBeta,
		lyapunov.ConstantV(decideV, decideFrames, decideFrameLen), decideAlpha, in.RECPerSlotKWh, checked)
	if err != nil {
		return res, err
	}
	ctrl.SwitchCostKWh = decideSwitchKWh
	svc := serve.New(ctrl)
	svc.Instrument(serve.NewSiteMetrics(reg, "cocad", "bench"))
	h := svc.Handler(reg, tr)

	var allocs0 uint64
	for t, slot := range in.Slots {
		if t == 1 {
			allocs0 = allocs()
		}
		t0 := time.Now()
		d, err := postDecide(h, slot, tr)
		elapsed := time.Since(t0)
		res.tripUS += us(elapsed)
		if t == 0 {
			res.setup = time.Since(start)
		} else {
			res.slotMS = append(res.slotMS, ms(elapsed))
		}
		if err != nil {
			res.failed++
			out.fail("slot %d: %v", t, err)
			continue
		}
		if !slices.Equal(d.Speeds, checked.last.Speeds) {
			res.failed++
			out.fail("slot %d: /decide returned speeds that differ from the solver's", t)
		}
		res.costUSD += d.TotalUSD
		res.gridKWh += d.GridKWh
		if hr != nil {
			if err := hr.splits.replay(&checked.prob, checked.last.Speeds, hr.replayR, decideReplays); err != nil {
				return res, err
			}
		}
	}
	res.allocs = allocs() - allocs0
	res.wall = time.Since(start)
	st, err := getState(h)
	if err != nil {
		return res, err
	}
	res.hash = st.Hash
	return res, nil
}

// postDecide makes one /decide round trip: encode the slot, call the
// handler, decode the decision. When tracing, a serve.decide root span
// wraps the handler call; the solver's gsd.solve span nests under it.
func postDecide(h http.Handler, in serve.SlotInput, tr *span.Tracer) (serve.Decision, error) {
	var d serve.Decision
	body, err := json.Marshal(in)
	if err != nil {
		return d, err
	}
	req := httptest.NewRequest(http.MethodPost, "/decide", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	sp := tr.StartRoot("serve.decide")
	h.ServeHTTP(rec, req)
	sp.End()
	if rec.Code != http.StatusOK {
		return d, fmt.Errorf("/decide answered %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	err = json.Unmarshal(rec.Body.Bytes(), &d)
	return d, err
}

func getState(h http.Handler) (serve.State, error) {
	var st serve.State
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/state", nil))
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("/state answered %d", rec.Code)
	}
	err := json.Unmarshal(rec.Body.Bytes(), &st)
	return st, err
}

func runDecide(o options) (*outcome, error) {
	out := &outcome{}
	heap := startHeapSampler()
	in := genDecide(o.seed, dcmodel.HeterogeneousCluster(decideServers, decideGroups), decideEpisode)

	var (
		plain, traced []decideEpisodeResult
		hr            = &decideHarness{
			tracer:  span.NewTracer(),
			solve:   telemetry.NewSolveMetrics(telemetry.NewRegistry(), "gsd"),
			splits:  &splitStats{},
			replayR: newRNG(o.seed ^ 0x5EED),
		}
		tracedWallUS float64
		peaks        []float64 // per untraced episode: peak heap in use (MiB)
	)
	deadline := time.Now().Add(o.duration)
	// Episodes run in blocks of decideChains, one per chain, until the
	// deadline and for at least two blocks, so every chain's /state hash is
	// compared with a repeat. A traced run alternates untraced and traced
	// blocks.
	first := make([]decideEpisodeResult, decideChains)
	for i := 0; i < 2*decideChains || time.Now().Before(deadline); i++ {
		chain := i % decideChains
		var h *decideHarness
		if o.trace && (i/decideChains)%2 == 1 {
			h = hr
		}
		runtime.GC() // start each repetition without the previous one's garbage
		heap.window()
		ep, err := runDecideEpisode(in, newDecideSolver(chainSeed(o.seed, chain), h), h, out)
		if err != nil {
			return nil, err
		}
		out.attempted += len(in.Slots)
		out.failed += ep.failed
		if i < decideChains {
			first[chain] = ep
		} else if ref := first[chain]; ep.hash != ref.hash || ep.costUSD != ref.costUSD || ep.gridKWh != ref.gridKWh {
			out.fail("chain %d: episode /state hash %s (cost %v) differs from its first episode's %s (cost %v)",
				chain, ep.hash, ep.costUSD, ref.hash, ref.costUSD)
		}
		if h != nil {
			traced = append(traced, ep)
			tracedWallUS += ep.tripUS
		} else {
			plain = append(plain, ep)
			peaks = append(peaks, heap.window())
		}
	}
	heap.close()

	// The whole result of a decide study is one block: every chain's
	// episode. sweep_s is the median wall time of the complete untraced
	// blocks, so each value covers the same 8 chains.
	var setups, walls, slotMS []float64
	for i, ep := range plain {
		setups = append(setups, ep.setup.Seconds())
		slotMS = append(slotMS, ep.slotMS...)
		if i%decideChains == 0 {
			walls = append(walls, 0)
		}
		walls[len(walls)-1] += ep.wall.Seconds()
	}
	if len(plain)%decideChains != 0 {
		walls = walls[:len(walls)-1]
	}
	var cost, grid float64
	for _, ep := range first {
		cost += ep.costUSD
		grid += ep.gridKWh
	}
	n := float64(len(in.Slots) * decideChains)
	out.set("setup_s", median(setups), "s")
	out.set("slot_p50_ms", median(slotMS), "ms")
	out.set("slot_p90_ms", quantile(slotMS, 0.9), "ms")
	out.set("sweep_s", median(walls), "s")
	out.set("cost_usd_per_slot", cost/n, "USD")
	out.set("grid_kwh_per_slot", grid/n, "kWh")
	out.set("peak_heap_mb", median(peaks), "MB")
	var allocsSum uint64
	for _, ep := range plain {
		allocsSum += ep.allocs
	}
	out.set("allocs_per_slot", ratio(float64(allocsSum), float64(len(slotMS))), "count")
	fmt.Fprintf(o.log, "decide: %d untraced episodes of %d slots, %d timed slot samples\n",
		len(plain), decideEpisode, len(slotMS))
	if !o.trace {
		return out, nil
	}

	var tracedMS []float64
	for _, ep := range traced {
		tracedMS = append(tracedMS, ep.slotMS...)
	}
	overhead := ratio(median(tracedMS)-median(slotMS), median(slotMS))
	var lt layerTimes
	if err := lt.collect(filepath.Join(o.traceDir, "decide.ndjson"), hr.tracer); err != nil {
		return nil, err
	}
	out.set("trace.overhead", overhead, "share")
	out.set("serve.self_ms", ratio(lt.selfUS["serve.decide"], float64(lt.count["serve.decide"]))/1e3, "ms")
	out.set("gsd.solve_ms", lt.meanMS("gsd.solve"), "ms")
	out.set("gsd.share", ratio(lt.totalUS["gsd.solve"], lt.totalUS["serve.decide"]), "share")
	sm := hr.solve
	out.set("gsd.iterations_per_solve", ratio(sm.Iterations.Value(), sm.Solves.Value()), "count")
	out.set("gsd.accept_rate", ratio(sm.Accepted.Value(), sm.Iterations.Value()), "share")
	out.set("gsd.cold_fallbacks", sm.ColdFallbacks.Value(), "count")
	hr.splits.report(out)
	checkSelfSum(out, lt, tracedWallUS, overhead)
	return out, nil
}

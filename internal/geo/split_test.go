package geo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/gsd"
	"repro/internal/p3"
	"repro/internal/price"
	"repro/internal/renewable"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// makeSitesK builds a deterministic K-site federation with staggered
// price levels, fleet sizes and on-site renewables, so splits are
// non-trivial at any K.
func makeSitesK(k, slots int) []FleetSite {
	sites := make([]FleetSite, k)
	for i := range sites {
		p := price.CAISOYear(uint64(i + 1))
		scale := 0.4 + 0.15*float64(i%5)
		for j := range p.Values {
			p.Values[j] *= scale
		}
		sites[i] = FleetSite{
			Name:    fmt.Sprintf("s%02d", i),
			Cluster: opteronCluster(60 + 10*(i%4)),
			Price:   p,
			Portfolio: &renewable.Portfolio{
				OnsiteKW:   trace.Constant("r", float64(i%3), slots),
				OffsiteKWh: trace.Constant("f", 2, slots),
				RECsKWh:    float64(slots) * 3,
				Alpha:      1,
			},
		}
	}
	return sites
}

// putFloats folds vs into h as little-endian IEEE-754 bits, so a digest
// over computed numbers is platform-independent.
func putFloats(h hash.Hash64, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// hashOutcome folds every computed number of a StepOutcome into h.
func hashOutcome(h hash.Hash64, out StepOutcome) {
	putFloats(h, out.TotalCostUSD, out.TotalGridKWh)
	for _, so := range out.Sites {
		putFloats(h, so.LoadRPS, float64(so.Speed), float64(so.Active),
			so.PowerKW, so.GridKWh, so.DelayCost, so.CostUSD)
	}
}

// hashOutcomeCharges folds a StepOutcome's totals and each site's load,
// speed, servers and charges into h, leaving out PowerKW and DelayCost.
func hashOutcomeCharges(h hash.Hash64, out StepOutcome) {
	putFloats(h, out.TotalCostUSD, out.TotalGridKWh)
	for _, so := range out.Sites {
		putFloats(h, so.LoadRPS, float64(so.Speed), float64(so.Active), so.CostUSD, so.GridKWh)
	}
}

// largeSitesK is makeSitesK at 500–800 Opteron servers per site with ten
// times the off-site energy and RECs.
func largeSitesK(k, slots int) []FleetSite {
	sites := makeSitesK(k, slots)
	for i := range sites {
		sites[i].Cluster = opteronCluster(500 + 100*(i%4))
		sites[i].Portfolio.OffsiteKWh = trace.Constant("f", 20, slots)
		sites[i].Portfolio.RECsKWh = float64(slots) * 30
	}
	return sites
}

// TestGoldenSplitParity pins the split hot path bit-for-bit: the naive
// reference loop, the memoized sequential path and the memoized parallel
// path (workers > 1) must all reproduce the golden digest slot after slot,
// with the deficit queues fed back so any drift compounds and is caught.
func TestGoldenSplitParity(t *testing.T) {
	ramp := func(capRPS float64, tt, slots int) float64 {
		return capRPS * (0.15 + 0.6*float64(tt)/float64(slots))
	}
	wave := func(capRPS float64, tt, _ int) float64 {
		return capRPS * (0.35 + 0.3*math.Sin(float64(tt)/7))
	}
	cases := []struct {
		name  string
		sites func(k, slots int) []FleetSite
		k     int
		slots int
		load  func(capRPS float64, tt, slots int) float64
		hash  func(hash.Hash64, StepOutcome)
		want  uint64
	}{
		{"K=4", makeSitesK, 4, 12, ramp, hashOutcome, 0x0f7b421a181336af},
		{"K=16", makeSitesK, 16, 12, ramp, hashOutcome, 0x2fa040a52c5c8cba},
		{"K=16-large-96slots", largeSitesK, 16, 96, wave, hashOutcomeCharges, 0x4ebecbf49ca54a0c},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Fleet {
				sys, err := NewHomogeneousFleet(tc.sites(tc.k, tc.slots), 0.005, tc.slots)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			naiveSys, memoSys, parSys := mk(), mk(), mk()
			if err := parSys.SetWorkers(4); err != nil {
				t.Fatal(err)
			}
			hn, hm, hp := fnv.New64a(), fnv.New64a(), fnv.New64a()
			capRPS := naiveSys.TotalCapacityRPS()
			for tt := 0; tt < tc.slots; tt++ {
				lambda := tc.load(capRPS, tt, tc.slots)
				const v = 120
				outN, _, err := naiveSys.stepNaive(lambda, v)
				if err != nil {
					t.Fatal(err)
				}
				naiveSys.Settle(outN)
				outM, err := memoSys.GreedyStep(lambda, v)
				if err != nil {
					t.Fatal(err)
				}
				memoSys.Settle(outM)
				outP, err := parSys.GreedyStep(lambda, v)
				if err != nil {
					t.Fatal(err)
				}
				parSys.Settle(outP)
				tc.hash(hn, outN)
				tc.hash(hm, outM)
				tc.hash(hp, outP)
			}
			for _, arm := range []struct {
				name string
				got  uint64
			}{{"naive", hn.Sum64()}, {"memoized", hm.Sum64()}, {"parallel", hp.Sum64()}} {
				if arm.got != tc.want {
					t.Errorf("%s split hash fnv1a:%016x, want fnv1a:%016x", arm.name, arm.got, tc.want)
				}
			}
		})
	}
}

// TestGoldenProportionalSplit pins the capacity-proportional step
// bit-for-bit on single-group sites, sequential and fanned over 4 workers,
// with the deficit queues fed back so any drift compounds and is caught.
func TestGoldenProportionalSplit(t *testing.T) {
	const k, slots, want = 16, 12, uint64(0x8aca2ec14c02ca86)
	for _, workers := range []int{1, 4} {
		sys, err := NewHomogeneousFleet(makeSitesK(k, slots), 0.005, slots)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SetWorkers(workers); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		capRPS := sys.TotalCapacityRPS()
		for tt := 0; tt < slots; tt++ {
			out, err := sys.Step(capRPS*(0.15+0.6*float64(tt)/float64(slots)), 120)
			if err != nil {
				t.Fatal(err)
			}
			hashOutcome(h, out)
			sys.Settle(out)
		}
		if got := h.Sum64(); got != want {
			t.Errorf("workers=%d: proportional hash fnv1a:%016x, want fnv1a:%016x", workers, got, want)
		}
	}
}

// TestSplitSolveAccounting pins the memo table's exact bookkeeping: every
// P3 solve the naive loop pays is either a fresh solve or a memo hit on
// the memoized path (p3_solves + memo_hits == naive solves), and at K=16
// the fresh-solve count drops at least 5×.
func TestSplitSolveAccounting(t *testing.T) {
	const k, slots = 16, 6
	naiveSys, err := NewHomogeneousFleet(makeSitesK(k, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	memoSys, err := NewHomogeneousFleet(makeSitesK(k, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	memoSys.Instrument(telemetry.NewFleetMetrics(reg, "geo"))
	capRPS := naiveSys.TotalCapacityRPS()
	var naiveSolves int
	for tt := 0; tt < slots; tt++ {
		lambda := capRPS * (0.2 + 0.1*float64(tt))
		outN, solves, err := naiveSys.stepNaive(lambda, 120)
		if err != nil {
			t.Fatal(err)
		}
		naiveSys.Settle(outN)
		naiveSolves += solves
		outM, err := memoSys.GreedyStep(lambda, 120)
		if err != nil {
			t.Fatal(err)
		}
		memoSys.Settle(outM)
	}
	snap := reg.Snapshot()
	memoSolves := snap.Counters["geo.p3_solves"]
	memoHits := snap.Counters["geo.memo_hits"]
	if got := memoSolves + memoHits; got != float64(naiveSolves) {
		t.Errorf("p3_solves (%v) + memo_hits (%v) = %v, want the naive loop's %d solves exactly",
			memoSolves, memoHits, got, naiveSolves)
	}
	if memoSolves*5 > float64(naiveSolves) {
		t.Errorf("memoized path spent %v P3 solves vs naive %d — want ≥ 5× fewer",
			memoSolves, naiveSolves)
	}
	if errs := solveErrors(snap, memoSys); errs != 0 {
		t.Errorf("solve_errors = %v on a healthy run", errs)
	}
	t.Logf("solves/step: naive %.1f, memoized %.1f (%.1fx), hits/step %.1f",
		float64(naiveSolves)/slots, memoSolves/slots,
		float64(naiveSolves)/memoSolves, memoHits/slots)
}

// TestStepParallelConcurrency drives the parallel split with more workers
// than sites and verifies it matches the sequential system slot-for-slot —
// run under -race (CI does) this is the data-race exercise of the fan-out.
func TestStepParallelConcurrency(t *testing.T) {
	const k, slots = 12, 8
	seqSys, err := NewHomogeneousFleet(makeSitesK(k, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	parSys, err := NewHomogeneousFleet(makeSitesK(k, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	if err := parSys.SetWorkers(32); err != nil {
		t.Fatal(err)
	}
	capRPS := seqSys.TotalCapacityRPS()
	for tt := 0; tt < slots; tt++ {
		lambda := capRPS * (0.1 + 0.08*float64(tt))
		want, err := seqSys.GreedyStep(lambda, 150)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parSys.GreedyStep(lambda, 150)
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalCostUSD != want.TotalCostUSD || got.TotalGridKWh != want.TotalGridKWh {
			t.Fatalf("slot %d: parallel totals diverged: %+v vs %+v", tt, got, want)
		}
		for i := range want.Sites {
			if got.Sites[i] != want.Sites[i] {
				t.Fatalf("slot %d site %d diverged: %+v vs %+v", tt, i, got.Sites[i], want.Sites[i])
			}
		}
		seqSys.Settle(want)
		parSys.Settle(got)
	}
}

// solveErrors sums the site-labeled geo.site.solve_errors series over the
// fleet's sites.
func solveErrors(snap telemetry.Snapshot, f *Fleet) float64 {
	var n float64
	for _, s := range f.Sites {
		v, _ := snap.LabeledCounters["geo.site.solve_errors"].Get(s.Name)
		n += v
	}
	return n
}

// TestSolveErrorSurfaced pins the infeasibility/error distinction: a site
// cluster corrupted after construction (no servers left) reaches the
// closed-form solver, and must surface as a real error (p3.ErrInvalid)
// counted in the site's solve_errors series — not be masked as "site
// full", which would strand the load on the other sites.
func TestSolveErrorSurfaced(t *testing.T) {
	const slots = 4
	sys, err := NewHomogeneousFleet(makeSitesK(3, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sys.Instrument(telemetry.NewFleetMetrics(reg, "geo"))
	sys.Sites[0].Cluster.Groups[0].N = 0
	_, err = sys.GreedyStep(120, 120)
	if err == nil {
		t.Fatal("corrupted site stepped without error")
	}
	if !errors.Is(err, p3.ErrInvalid) {
		t.Errorf("error %v does not wrap p3.ErrInvalid", err)
	}
	if !strings.Contains(err.Error(), "site s00") {
		t.Errorf("error %q does not name the failing site", err)
	}
	snap := reg.Snapshot()
	if got, _ := snap.LabeledCounters["geo.site.solve_errors"].Get("s00"); got != 1 {
		t.Errorf("geo.site.solve_errors{site=s00} = %v, want 1", got)
	}
	if got := solveErrors(snap, sys); got != 1 {
		t.Errorf("solve_errors over all sites = %v, want 1", got)
	}
	if got := snap.Counters["geo.steps"]; got != 0 {
		t.Errorf("failed step observed as settled: steps = %v", got)
	}
}

// TestStepsRejectNonFiniteInputs pins validateLoad's finiteness rule: a
// NaN or infinite load or V is a validation error on both steps and on
// both kinds of fleet — it never reaches a site solver, counts no solve
// error, and leaves the slot where it was.
func TestStepsRejectNonFiniteInputs(t *testing.T) {
	const slots = 4
	homog, err := NewHomogeneousFleet(makeSitesK(3, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	gsdFleet, err := NewFleet(makeFleetSites(3, 2, 5, slots), 0.005, slots, gsd.Options{Delta: 1e4, MaxIters: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	inputs := [][2]float64{{nan, 100}, {inf, 100}, {-inf, 100}, {100, nan}, {100, inf}, {100, -inf}}
	for _, fc := range []struct {
		name string
		f    *Fleet
		step func(f *Fleet, lambda, v float64) (StepOutcome, error)
	}{
		{"homogeneous/Step", homog, (*Fleet).Step},
		{"homogeneous/GreedyStep", homog, (*Fleet).GreedyStep},
		{"gsd/Step", gsdFleet, (*Fleet).Step},
	} {
		reg := telemetry.NewRegistry()
		fc.f.Instrument(telemetry.NewFleetMetrics(reg, "geo"))
		for _, in := range inputs {
			_, err := fc.step(fc.f, in[0], in[1])
			if err == nil || !strings.Contains(err.Error(), "must be finite") {
				t.Errorf("%s(λ=%v, V=%v) = %v, want a validation error", fc.name, in[0], in[1], err)
			}
		}
		if got := solveErrors(reg.Snapshot(), fc.f); got != 0 {
			t.Errorf("%s: non-finite inputs counted %v solve errors", fc.name, got)
		}
		if fc.f.Slot() != 0 {
			t.Errorf("%s: slot moved to %d", fc.name, fc.f.Slot())
		}
	}
}

// TestNoSiteCanAbsorbChunk forces the stranded-load error: two sites whose
// per-site capacities are non-integer multiples of the chunk size can
// absorb at most 99 of the 100 chunks of a load equal to the federation's
// aggregate capacity. Both the memoized and the naive path must fail the
// same way, without counting a solver error.
func TestNoSiteCanAbsorbChunk(t *testing.T) {
	const slots = 4
	sites := makeSitesK(2, slots)
	sites[0].Cluster = opteronCluster(1)
	sites[1].Cluster = opteronCluster(2) // capacities split 1:2 → 33.3 and 66.7 chunks
	sys, err := NewHomogeneousFleet(sites, 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sys.Instrument(telemetry.NewFleetMetrics(reg, "geo"))
	lambda := sys.TotalCapacityRPS()
	_, err = sys.GreedyStep(lambda, 120)
	if !errors.Is(err, errNoAbsorb) {
		t.Fatalf("want the no-absorb error, got %v", err)
	}
	if got := solveErrors(reg.Snapshot(), sys); got != 0 {
		t.Errorf("stranded load counted as solver error: %v", got)
	}
	if _, _, err := sys.stepNaive(lambda, 120); !errors.Is(err, errNoAbsorb) {
		t.Fatalf("naive reference disagrees: %v", err)
	}
}

// TestSettleDeficitAccounting pins Settle's per-site queue recursion
// q ← [q + grid − α·offsite − z]^+ against hand-computed expectations.
func TestSettleDeficitAccounting(t *testing.T) {
	const slots = 8
	sites := makeSitesK(2, slots)
	// Site 0: starved budget (no offsite, one REC total) so its queue grows
	// by its full grid draw minus the tiny allowance. Site 1: generous.
	sites[0].Portfolio.OffsiteKWh = trace.Constant("f", 0, slots)
	sites[0].Portfolio.RECsKWh = 1
	sys, err := NewHomogeneousFleet(sites, 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0}
	z := []float64{1.0 / slots, sites[1].Portfolio.RECsKWh / slots}
	offsite := []float64{0, 2}
	for tt := 0; tt < 3; tt++ {
		out, err := sys.GreedyStep(500, 120)
		if err != nil {
			t.Fatal(err)
		}
		sys.Settle(out)
		for i := range want {
			want[i] = math.Max(0, want[i]+out.Sites[i].GridKWh-
				sites[i].Portfolio.Alpha*offsite[i]-z[i])
			if got := sys.Queue(i); math.Abs(got-want[i]) > 1e-9 {
				t.Fatalf("slot %d site %d queue = %v, want %v", tt, i, got, want[i])
			}
		}
	}
	if sys.Queue(0) == 0 {
		t.Error("starved site's queue never grew — accounting test is vacuous")
	}
	if sys.Slot() != 3 {
		t.Errorf("slot = %d after 3 settles, want 3", sys.Slot())
	}
}

// TestProportionalSplitGuards pins the shared validation: the
// capacity-proportional Step must reject exactly what GreedyStep rejects.
func TestProportionalSplitGuards(t *testing.T) {
	const slots = 2
	sys, err := NewHomogeneousFleet(makeSitesK(2, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(-1, 120); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := sys.Step(sys.TotalCapacityRPS()+1, 120); err == nil {
		t.Error("over-capacity load accepted")
	}
	for tt := 0; tt < slots; tt++ {
		out, err := sys.Step(100, 120)
		if err != nil {
			t.Fatal(err)
		}
		sys.Settle(out)
	}
	if _, err := sys.Step(100, 120); err == nil {
		t.Error("step beyond horizon accepted")
	}
	// GreedyStep shares the same guard set (already covered elsewhere for
	// load bounds): the horizon case must agree with Step.
	if _, err := sys.GreedyStep(100, 120); err == nil {
		t.Error("GreedyStep beyond horizon accepted")
	}
}

// benchGeoSystem builds a K-site homogeneous fleet with a long horizon for the
// split benchmarks; stepping without settling keeps the slot fixed so the
// horizon never exhausts mid-measurement.
func benchGeoSystem(b *testing.B, k, workers int) (*Fleet, float64) {
	b.Helper()
	sys, err := NewHomogeneousFleet(makeSitesK(k, 64), 0.005, 64)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.SetWorkers(workers); err != nil {
		b.Fatal(err)
	}
	return sys, 0.4 * sys.TotalCapacityRPS()
}

// BenchmarkGeoStepNaive is the pre-memoization reference cost (O(Chunks·K)
// P3 solves per slot) — the yardstick for the memoized paths below.
func BenchmarkGeoStepNaive(b *testing.B) {
	sys, lambda := benchGeoSystem(b, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.stepNaive(lambda, 120); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeoStepMemo is the memoized sequential split.
func BenchmarkGeoStepMemo(b *testing.B) {
	sys, lambda := benchGeoSystem(b, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.GreedyStep(lambda, 120); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeoStepParallel adds the worker-pool fan-out on top of the memo
// table.
func BenchmarkGeoStepParallel(b *testing.B) {
	sys, lambda := benchGeoSystem(b, 16, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.GreedyStep(lambda, 120); err != nil {
			b.Fatal(err)
		}
	}
}

package baseline

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lyapunov"
	"repro/internal/sim"
	"repro/internal/simtest"
)

func buildScenario(t *testing.T, slots int) (*sim.Scenario, float64) {
	t.Helper()
	sc, refGrid, err := simtest.Build(simtest.Options{Slots: slots, N: 500})
	if err != nil {
		t.Fatal(err)
	}
	return sc, refGrid
}

// TestGoldenUnawareRunHash pins four weeks of the Unaware policy on a
// 2000-server scenario: an FNV-1a digest over the little-endian bits of
// every slot's speed, servers, load, charges and energy figures.
func TestGoldenUnawareRunHash(t *testing.T) {
	const want = 0x84e3cd10ada72be5
	sc, _, err := simtest.Build(simtest.Options{Slots: 28 * 24, N: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sc, NewUnaware(sc))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range res.Records {
		for _, v := range []float64{float64(r.Slot), float64(r.Speed), float64(r.Active),
			r.LambdaRPS, r.TotalUSD, r.ElectricityUSD, r.DelayUSD, r.SwitchUSD,
			r.GridKWh, r.EnergyKWh, r.DeficitKWh} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("unaware run hash fnv1a:%016x, want fnv1a:%016x", got, uint64(want))
	}
}

func runPolicy(t *testing.T, sc *sim.Scenario, p sim.Policy) sim.Summary {
	t.Helper()
	res, err := sim.Run(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Summarize(sc, res)
}

func TestUnawareMatchesReference(t *testing.T) {
	sc, refGrid := buildScenario(t, 14*24)
	s := runPolicy(t, sc, NewUnaware(sc))
	if math.Abs(s.TotalGridKWh-refGrid) > 1e-6*refGrid {
		t.Errorf("unaware grid %v != calibration reference %v", s.TotalGridKWh, refGrid)
	}
	// Budget is 92% of the unaware usage, so unaware must overshoot by 1/0.92.
	if math.Abs(s.BudgetUsedFraction-1/0.92) > 0.01 {
		t.Errorf("unaware budget fraction = %v, want ≈ %v", s.BudgetUsedFraction, 1/0.92)
	}
	u := NewUnaware(sc)
	runPolicy(t, sc, u)
	if math.IsInf(u.MinSlotCost, 1) || u.MinSlotCost < 0 {
		t.Errorf("MinSlotCost = %v", u.MinSlotCost)
	}
}

func TestOPTMeetsBudgetExactly(t *testing.T) {
	sc, _ := buildScenario(t, 14*24)
	opt, err := NewOPT(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Exact {
		t.Fatal("OPT saturated unexpectedly")
	}
	s := runPolicy(t, sc, opt)
	if s.BudgetUsedFraction > 1.0+1e-9 {
		t.Errorf("OPT violates budget: %v", s.BudgetUsedFraction)
	}
	if s.BudgetUsedFraction < 0.97 {
		t.Errorf("OPT leaves budget unused: %v (complementary slackness)", s.BudgetUsedFraction)
	}
	if opt.Eta() <= 0 {
		t.Errorf("binding budget needs positive dual price, got %v", opt.Eta())
	}
}

func TestOPTZeroEtaWhenBudgetSlack(t *testing.T) {
	sc, _ := buildScenario(t, 7*24)
	// Inflate RECs so the unaware optimum fits inside the budget.
	sc.Portfolio.RECsKWh *= 100
	opt, err := NewOPT(sc)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Eta() != 0 {
		t.Errorf("slack budget: eta = %v, want 0", opt.Eta())
	}
	s := runPolicy(t, sc, opt)
	un := runPolicy(t, sc, NewUnaware(sc))
	if math.Abs(s.AvgHourlyCostUSD-un.AvgHourlyCostUSD) > 1e-9 {
		t.Error("with slack budget OPT must equal the unaware optimum")
	}
}

func TestOPTBeatsEveryNeutralPolicy(t *testing.T) {
	// OPT's cost is a lower bound for any policy meeting the budget.
	sc, _ := buildScenario(t, 14*24)
	opt, err := NewOPT(sc)
	if err != nil {
		t.Fatal(err)
	}
	sOpt := runPolicy(t, sc, opt)
	// COCA tuned to meet the budget.
	for _, v := range []float64{1e4, 1e5, 1e6} {
		p, err := core.New(core.FromScenario(sc, lyapunov.ConstantV(v, 1, sc.Slots)))
		if err != nil {
			t.Fatal(err)
		}
		s := runPolicy(t, sc, p)
		if s.BudgetUsedFraction <= 1.0 && s.AvgHourlyCostUSD < sOpt.AvgHourlyCostUSD*(1-1e-6) {
			t.Errorf("V=%v: neutral COCA (%v) beat OPT (%v)", v, s.AvgHourlyCostUSD, sOpt.AvgHourlyCostUSD)
		}
	}
	php, err := NewPerfectHP(sc, 48)
	if err != nil {
		t.Fatal(err)
	}
	sPhp := runPolicy(t, sc, php)
	if sPhp.BudgetUsedFraction <= 1.0 && sPhp.AvgHourlyCostUSD < sOpt.AvgHourlyCostUSD*(1-1e-6) {
		t.Errorf("neutral PerfectHP (%v) beat OPT (%v)", sPhp.AvgHourlyCostUSD, sOpt.AvgHourlyCostUSD)
	}
}

func TestPerfectHPRespectsCapsWhenFeasible(t *testing.T) {
	sc, _ := buildScenario(t, 4*48)
	php, err := NewPerfectHP(sc, 48)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sc, php)
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	for t_, rec := range res.Records {
		cap := php.Budget(t_)
		if rec.GridKWh > cap*(1+1e-6)+1e-9 {
			// Permitted only when the cap was infeasible: verify that even
			// the most electricity-averse decision exceeds the cap.
			if php.s.gridAt(php.s.trueObs(t_), etaCap) <= cap {
				violations++
			}
		}
	}
	if violations > 0 {
		t.Errorf("%d slots violated a feasible hourly cap", violations)
	}
}

func TestPerfectHPBudgetAllocationProportional(t *testing.T) {
	sc, _ := buildScenario(t, 96)
	php, err := NewPerfectHP(sc, 48)
	if err != nil {
		t.Fatal(err)
	}
	// Within a frame, caps are proportional to workloads.
	l0, l1 := sc.Workload.Values[10], sc.Workload.Values[20]
	b0, b1 := php.Budget(10), php.Budget(20)
	if l0 > 0 && l1 > 0 {
		r1 := b0 / l0
		r2 := b1 / l1
		if math.Abs(r1-r2) > 1e-9*(r1+r2) {
			t.Errorf("allocation not λ-proportional: %v vs %v", r1, r2)
		}
	}
	// Frame budgets sum to the frame's offsite + REC share.
	var sum float64
	for t_ := 0; t_ < 48; t_++ {
		sum += php.Budget(t_)
	}
	want := sc.Portfolio.Alpha * (sumRange(sc.Portfolio.OffsiteKWh.Values, 0, 48) + sc.Portfolio.RECsKWh/2)
	if math.Abs(sum-want) > 1e-6*want {
		t.Errorf("frame budget sum = %v, want %v", sum, want)
	}
}

func sumRange(xs []float64, lo, hi int) float64 {
	var s float64
	for _, x := range xs[lo:hi] {
		s += x
	}
	return s
}

func TestPerfectHPValidation(t *testing.T) {
	sc, _ := buildScenario(t, 48)
	if _, err := NewPerfectHP(sc, 0); err == nil {
		t.Error("zero frame accepted")
	}
}

func TestLookaheadFramesAndOptima(t *testing.T) {
	sc, _ := buildScenario(t, 8*24)
	la, err := NewLookahead(sc, 48)
	if err != nil {
		t.Fatal(err)
	}
	opt := la.FrameOptima()
	if len(opt) != 4 {
		t.Fatalf("frames = %d, want 4", len(opt))
	}
	for i, g := range opt {
		if g <= 0 || math.IsInf(g, 0) {
			t.Errorf("G*_%d = %v", i, g)
		}
	}
	s := runPolicy(t, sc, la)
	if s.BudgetUsedFraction > 1.02 {
		t.Errorf("lookahead budget fraction = %v", s.BudgetUsedFraction)
	}
	// T must divide the horizon.
	if _, err := NewLookahead(sc, 100); err == nil {
		t.Error("non-dividing T accepted")
	}
}

func TestLookaheadLongerWindowNoWorse(t *testing.T) {
	// A longer lookahead window is a weaker constraint set, so the total
	// planned cost cannot increase.
	sc, _ := buildScenario(t, 8*24)
	short, err := NewLookahead(sc, 24)
	if err != nil {
		t.Fatal(err)
	}
	long, err := NewLookahead(sc, 96)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if avg(long.FrameOptima()) > avg(short.FrameOptima())*(1+1e-6) {
		t.Errorf("T=96 average optimum %v worse than T=24 %v",
			avg(long.FrameOptima()), avg(short.FrameOptima()))
	}
}

func TestTheorem2CostBoundHolds(t *testing.T) {
	// Empirical check of Eq. (20): COCA's average cost is bounded by the
	// T-lookahead optimum plus C(T)/V.
	sc, _ := buildScenario(t, 6*24)
	T := 48
	la, err := NewLookahead(sc, T)
	if err != nil {
		t.Fatal(err)
	}
	v := 1e5
	sched := lyapunov.VSchedule{T: T, Vs: []float64{v, v, v}}
	p, err := core.New(core.FromScenario(sc, sched))
	if err != nil {
		t.Fatal(err)
	}
	s := runPolicy(t, sc, p)
	bounds := lyapunov.Bounds{
		YMax: float64(sc.N) * sc.Server.MaxBusyKW() * sc.PUE,
		ZMax: sc.Portfolio.Alpha*maxOf(sc.Portfolio.OffsiteKWh.Values[:sc.Slots]) + sc.Portfolio.RECPerSlotKWh(sc.Slots),
		RMax: maxOf(sc.Portfolio.OnsiteKW.Values[:sc.Slots]),
	}
	bound := lyapunov.CostBound(bounds, sched, la.FrameOptima())
	if s.AvgHourlyCostUSD > bound {
		t.Errorf("Theorem 2(b) violated: COCA %v > bound %v", s.AvgHourlyCostUSD, bound)
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

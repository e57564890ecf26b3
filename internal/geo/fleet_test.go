package geo

import (
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/gsd"
	"repro/internal/price"
	"repro/internal/renewable"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// makeFleetSites builds a deterministic K-site fleet of heterogeneous
// clusters: groupsPerSite groups of serversPerGroup servers each, staggered
// price levels and renewables, so splits and solves are non-trivial at any
// scale.
func makeFleetSites(k, groupsPerSite, serversPerGroup, slots int) []FleetSite {
	sites := make([]FleetSite, k)
	for i := range sites {
		p := price.CAISOYear(uint64(i + 1))
		scale := 0.4 + 0.15*float64(i%5)
		for j := range p.Values {
			p.Values[j] *= scale
		}
		cl := dcmodel.HeterogeneousCluster(groupsPerSite*serversPerGroup, groupsPerSite)
		sites[i] = FleetSite{
			Name:    fmt.Sprintf("f%03d", i),
			Cluster: cl,
			Price:   p,
			Portfolio: &renewable.Portfolio{
				OnsiteKW:   trace.Constant("r", float64(i%3), slots),
				OffsiteKWh: trace.Constant("f", 20, slots),
				RECsKWh:    float64(slots) * 30,
				Alpha:      1,
			},
		}
	}
	return sites
}

// hashFleetOutcome folds every computed number of a FleetStepOutcome into h.
func hashFleetOutcome(h hash.Hash64, out FleetStepOutcome) {
	putFloats(h, out.TotalCostUSD, out.TotalGridKWh)
	for _, so := range out.Sites {
		putFloats(h, so.LoadRPS, float64(so.Active), so.PowerKW,
			so.GridKWh, so.DelayCost, so.CostUSD, so.Value)
	}
}

// runFleetHash steps a fresh fleet for `slots` slots at the given worker
// count and returns the FNV-1a digest over every outcome and the final
// deficit-queue lengths.
func runFleetHash(t testing.TB, sites []FleetSite, slots, iters, workers int) uint64 {
	t.Helper()
	f, err := NewFleet(sites, 0.005, slots, gsd.Options{
		Delta: 1e4, MaxIters: iters, Seed: 2013,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetWorkers(workers); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	capRPS := f.TotalCapacityRPS()
	for tt := 0; tt < slots; tt++ {
		lambda := capRPS * (0.15 + 0.5*float64(tt)/float64(slots))
		out, err := f.Step(lambda, 5e5)
		if err != nil {
			t.Fatal(err)
		}
		hashFleetOutcome(h, out)
		f.Settle(out)
	}
	for i := range sites {
		putFloats(h, f.Queue(i))
	}
	return h.Sum64()
}

// TestFleetGoldenParityWorkers pins the fleet step bit-for-bit: sequential
// (workers=1) and parallel runs over the same sites — 8 workers, and 32,
// more workers than sites — must hash identically, deficit feedback
// included, so any schedule-dependent drift compounds and is caught.
func TestFleetGoldenParityWorkers(t *testing.T) {
	const slots = 6
	seq := runFleetHash(t, makeFleetSites(8, 12, 10, slots), slots, 40, 1)
	for _, workers := range []int{8, 32} {
		par := runFleetHash(t, makeFleetSites(8, 12, 10, slots), slots, 40, workers)
		if seq != par {
			t.Fatalf("fleet parallel step diverged at %d workers: seq %016x par %016x", workers, seq, par)
		}
	}
}

// TestFleetGoldenCells pins two fleet cells of 10-server groups over 4
// slots with a 60-iteration GSD budget — 12 groups × 16 sites (1,920
// servers) and 39 groups × 256 sites (99,840 servers) — to golden digests
// at one and two workers.
func TestFleetGoldenCells(t *testing.T) {
	cells := []struct {
		sites, groupsPerSite int
		want                 uint64
	}{
		{16, 12, 0x27d1a8c3a2d1b5d0},
		{256, 39, 0x5a340483ceaede43},
	}
	const slots, iters = 4, 60
	for _, c := range cells {
		t.Run(fmt.Sprintf("%dx%d", c.sites*c.groupsPerSite, c.sites), func(t *testing.T) {
			if c.sites > 16 && testing.Short() {
				t.Skip("99,840-server cell skipped in -short")
			}
			for _, workers := range []int{1, 2} {
				got := runFleetHash(t, makeFleetSites(c.sites, c.groupsPerSite, 10, slots), slots, iters, workers)
				if got != c.want {
					t.Errorf("workers=%d: fleet hash fnv1a:%016x, want fnv1a:%016x", workers, got, c.want)
				}
			}
		})
	}
}

// TestFleetScale256Sites10kGroups is the acceptance-scale exercise: 256
// sites × 40 groups ≈ 10k groups (≈ 100k servers at 10 servers/group),
// stepped with a wide worker pool — under -race in CI — and pinned
// bit-identical to the single-worker path.
func TestFleetScale256Sites10kGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale exercise skipped in -short")
	}
	const (
		sites, groups, servers = 256, 40, 10
		slots, iters           = 2, 25
	)
	seq := runFleetHash(t, makeFleetSites(sites, groups, servers, slots), slots, iters, 1)
	par := runFleetHash(t, makeFleetSites(sites, groups, servers, slots), slots, iters, 32)
	if seq != par {
		t.Fatalf("256-site fleet diverged: seq %016x par %016x", seq, par)
	}
}

// TestFleetSetWorkersRejectsNegative pins the cliutil.WorkersFor rule on
// both federation types: negatives are an explicit error, never a silent
// fallback.
func TestFleetSetWorkersRejectsNegative(t *testing.T) {
	const slots = 4
	f, err := NewFleet(makeFleetSites(2, 3, 5, slots), 0.005, slots, gsd.Options{Delta: 1e4, MaxIters: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetWorkers(-1); err == nil || !strings.Contains(err.Error(), "geo.Fleet.SetWorkers") {
		t.Fatalf("Fleet.SetWorkers(-1) = %v, want named error", err)
	}
	if err := f.SetWorkers(0); err != nil {
		t.Fatalf("Fleet.SetWorkers(0): %v", err)
	}
	sys, err := NewSystem(makeSitesK(2, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetWorkers(-3); err == nil || !strings.Contains(err.Error(), "geo.System.SetWorkers") {
		t.Fatalf("System.SetWorkers(-3) = %v, want named error", err)
	}
}

// TestFleetValidation covers the constructor and step guards.
func TestFleetValidation(t *testing.T) {
	const slots = 4
	sites := makeFleetSites(2, 3, 5, slots)
	if _, err := NewFleet(nil, 0.005, slots, gsd.Options{}); err == nil {
		t.Error("NewFleet with no sites should fail")
	}
	if _, err := NewFleet(sites, -1, slots, gsd.Options{}); err == nil {
		t.Error("NewFleet with negative beta should fail")
	}
	if _, err := NewFleet(sites, 0.005, 0, gsd.Options{}); err == nil {
		t.Error("NewFleet with zero horizon should fail")
	}
	bad := makeFleetSites(2, 3, 5, slots)
	bad[1].Cluster = nil
	if _, err := NewFleet(bad, 0.005, slots, gsd.Options{}); err == nil {
		t.Error("NewFleet with nil cluster should fail")
	}
	f, err := NewFleet(sites, 0.005, slots, gsd.Options{Delta: 1e4, MaxIters: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Step(-1, 5e5); err == nil {
		t.Error("negative load should fail")
	}
	if _, err := f.Step(2*f.TotalCapacityRPS(), 5e5); err == nil {
		t.Error("over-capacity load should fail")
	}
	for tt := 0; tt < slots; tt++ {
		out, err := f.Step(0.3*f.TotalCapacityRPS(), 5e5)
		if err != nil {
			t.Fatal(err)
		}
		f.Settle(out)
	}
	if _, err := f.Step(1, 5e5); err == nil {
		t.Error("stepping past the horizon should fail")
	}
}

// TestFleetInstrumentedParity pins the observability acceptance bound:
// attaching FleetMetrics must not change outcomes. An instrumented run
// hashes bit-identically to a bare one, and the labeled series agree
// exactly with the outcomes that produced them (same values folded in the
// same order, so float sums match bit for bit).
func TestFleetInstrumentedParity(t *testing.T) {
	const (
		slots, iters, workers = 4, 30, 4
		k, groups, servers    = 4, 6, 8
	)
	base := runFleetHash(t, makeFleetSites(k, groups, servers, slots), slots, iters, workers)

	sites := makeFleetSites(k, groups, servers, slots)
	f, err := NewFleet(sites, 0.005, slots, gsd.Options{Delta: 1e4, MaxIters: iters, Seed: 2013})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetWorkers(workers); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	f.Instrument(telemetry.NewFleetMetrics(reg, "fleet"))

	h := fnv.New64a()
	var wantCost, wantGrid float64
	wantLoad := make(map[string]float64, k)
	capRPS := f.TotalCapacityRPS()
	for tt := 0; tt < slots; tt++ {
		lambda := capRPS * (0.15 + 0.5*float64(tt)/float64(slots))
		out, err := f.Step(lambda, 5e5)
		if err != nil {
			t.Fatal(err)
		}
		hashFleetOutcome(h, out)
		wantCost += out.TotalCostUSD
		wantGrid += out.TotalGridKWh
		for i, so := range out.Sites {
			wantLoad[sites[i].Name] += so.LoadRPS
		}
		f.Settle(out)
	}
	for i := range sites {
		putFloats(h, f.Queue(i))
	}
	if got := h.Sum64(); got != base {
		t.Fatalf("instrumentation changed outcomes: bare %016x instrumented %016x", base, got)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["fleet.steps"]; got != slots {
		t.Errorf("fleet.steps = %v, want %d", got, slots)
	}
	if got := snap.Counters["fleet.total_usd"]; got != wantCost {
		t.Errorf("fleet.total_usd = %v, want %v", got, wantCost)
	}
	if got := snap.Counters["fleet.grid_kwh"]; got != wantGrid {
		t.Errorf("fleet.grid_kwh = %v, want %v", got, wantGrid)
	}
	if got := snap.Histograms["fleet.step_seconds"].Count; got != slots {
		t.Errorf("fleet.step_seconds count = %d, want %d", got, slots)
	}
	load := snap.LabeledCounters["fleet.site.load_rps"]
	deficit := snap.LabeledGauges["fleet.site.deficit_kwh"]
	for i, s := range sites {
		if got, ok := load.Get(s.Name); !ok || got != wantLoad[s.Name] {
			t.Errorf("fleet.site.load_rps{site=%q} = %v (ok=%v), want %v", s.Name, got, ok, wantLoad[s.Name])
		}
		if got, ok := deficit.Get(s.Name); !ok || got != f.Queue(i) {
			t.Errorf("fleet.site.deficit_kwh{site=%q} = %v (ok=%v), want %v", s.Name, got, ok, f.Queue(i))
		}
	}
	// The per-shard solver stats flow through Opts.Metrics: any site that
	// carried load ran at least one GSD solve under its own label.
	shardSolves := snap.LabeledCounters["fleet.shard.solves"]
	for _, s := range sites {
		if wantLoad[s.Name] == 0 {
			continue
		}
		if got, ok := shardSolves.Get(s.Name); !ok || got <= 0 {
			t.Errorf("fleet.shard.solves{site=%q} = %v (ok=%v), want > 0", s.Name, got, ok)
		}
	}
}

// TestFleetQueueSettle checks the deficit accounting: a site drawing more
// grid energy than its off-site generation accumulates deficit.
func TestFleetQueueSettle(t *testing.T) {
	const slots = 4
	sites := makeFleetSites(2, 3, 5, slots)
	for i := range sites {
		// No renewables at all: every kWh is grid draw.
		sites[i].Portfolio.OnsiteKW = trace.Constant("r", 0, slots)
		sites[i].Portfolio.OffsiteKWh = trace.Constant("f", 0, slots)
		sites[i].Portfolio.RECsKWh = 0
	}
	f, err := NewFleet(sites, 0.005, slots, gsd.Options{Delta: 1e4, MaxIters: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Step(0.4*f.TotalCapacityRPS(), 5e5)
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalGridKWh <= 0 {
		t.Fatalf("expected positive grid draw, got %v", out.TotalGridKWh)
	}
	f.Settle(out)
	for i := range sites {
		if f.Queue(i) <= 0 {
			t.Errorf("site %d: deficit queue %v, want > 0", i, f.Queue(i))
		}
	}
	if f.Slot() != 1 {
		t.Errorf("slot = %d after one settle, want 1", f.Slot())
	}
}

package main

import (
	"math"

	"repro/internal/dcmodel"
	"repro/internal/geo"
	"repro/internal/renewable"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The seeded input generator. Every workload input the program sees is
// made here, from the benchmark's --seed alone, so an edit to the
// program's own synthetic streams (serve.SyntheticSlots, price.CAISOYear,
// the simtest scenarios) cannot move the decide or fleet workloads.

// rng is splitmix64: tiny, fully specified, and stable across Go releases.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed ^ 0x5DEECE66D1CEB00C} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// sym returns a uniform draw in [-1, 1).
func (r *rng) sym() float64 { return 2*r.float() - 1 }

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// diurnal is a smooth daily load shape in [0, 1], trough at 04:00 and
// peak at 16:00.
func diurnal(hour int) float64 {
	return 0.5 - 0.5*math.Cos(2*math.Pi*float64((hour+20)%24)/24)
}

// solarShape is the clear-sky on-site generation shape: a half sine from
// 06:00 to 18:00, zero at night.
func solarShape(hour int) float64 {
	h := hour % 24
	if h <= 6 || h >= 18 {
		return 0
	}
	return math.Sin(math.Pi * float64(h-6) / 12)
}

// Sizing of the decide stream relative to the cluster. The solar peak sits
// above midday facility power, so about a third of the slots decide in the
// surplus regime; the off-site energy plus RECs sit near the grid draw, so
// the carbon-deficit queue, and with it the budget, binds.
const (
	decidePeakLoadFrac  = 0.5   // peak λ as a share of top-speed capacity
	decideSolarPeakFrac = 1.2   // solar peak as a share of PeakPowerKW
	decideOffsiteFrac   = 0.134 // mean off-site energy per slot, share of PeakPowerKW·1h
	decideRECFrac       = 0.2   // REC allowance per slot, share of PeakPowerKW·1h
)

// decideStream is the input of the decide workload: one SlotInput per slot
// plus the REC allowance the controller is built with.
type decideStream struct {
	Slots         []serve.SlotInput
	RECPerSlotKWh float64 // REC allowance per slot (kWh)
}

// genDecide makes n slots of the daemon's input stream for cluster c.
func genDecide(seed uint64, c *dcmodel.Cluster, n int) decideStream {
	r := newRNG(seed)
	capRPS := c.MaxCapacityRPS()
	peakKW := c.PeakPowerKW()
	out := decideStream{Slots: make([]serve.SlotInput, n), RECPerSlotKWh: decideRECFrac * peakKW}
	cloud := 1.0
	for t := range out.Slots {
		h := t % 24
		if h == 0 {
			cloud = 0.85 + 0.15*r.float() // one cloud factor per day
		}
		lambda := capRPS * decidePeakLoadFrac * (0.35 + 0.65*diurnal(h)) * (1 + 0.03*r.sym())
		price := 0.035 + 0.03*diurnal((h+3)%24) + 0.004*r.sym()
		out.Slots[t] = serve.SlotInput{
			LambdaRPS:      lambda,
			OnsiteKW:       decideSolarPeakFrac * peakKW * cloud * solarShape(h),
			PriceUSDPerKWh: price,
			OffsiteKWh:     decideOffsiteFrac * peakKW * (1 + 0.3*r.sym()),
		}
	}
	return out
}

// Fleet recipe: the cocasim -scale cell (10 servers per group, staggered
// site price levels, a few kW of on-site generation, constant off-site
// energy) with a diurnal fleet load. On-site generation stays far below
// site power, so every fleet split decides in the grid regime.
const (
	fleetServersPerGroup = 10
	fleetLoadLow         = 0.15 // fleet λ at the daily trough, share of capacity
	fleetLoadSwing       = 0.45 // added at the daily peak
	fleetOffsiteKWh      = 20   // off-site energy per site and slot
	fleetRECPerSlotKWh   = 30   // REC allowance per site and slot
)

// fleetInput is the input of the fleet workload: every site's price and
// renewable series and the fleet load of every slot.
type fleetInput struct {
	GroupsPerSite int
	Price         [][]float64 // $/kWh per site and slot
	OnsiteKW      []float64   // constant on-site generation per site
	Lambda        []float64   // fleet λ per slot, as a share of fleet capacity
}

// genFleet makes the site series and load schedule of an n-slot episode.
func genFleet(seed uint64, sites, groupsPerSite, n int) fleetInput {
	r := newRNG(seed ^ 0xF1EE7)
	in := fleetInput{
		GroupsPerSite: groupsPerSite,
		Price:         make([][]float64, sites),
		OnsiteKW:      make([]float64, sites),
		Lambda:        make([]float64, n),
	}
	for i := range in.Price {
		level := 0.4 + 0.15*float64(i%5)
		price := make([]float64, n)
		for t := range price {
			price[t] = level * (0.035 + 0.03*diurnal((t+3)%24) + 0.004*r.sym())
		}
		in.Price[i] = price
		in.OnsiteKW[i] = float64(i % 3)
	}
	for t := range in.Lambda {
		in.Lambda[t] = (fleetLoadLow + fleetLoadSwing*diurnal(t%24)) * (1 + 0.03*r.sym())
	}
	return in
}

// buildFleetSites builds the fleet's sites from the generated series. Every call
// constructs fresh clusters, so it belongs to the timed set-up.
func buildFleetSites(in fleetInput) []geo.FleetSite {
	n := len(in.Lambda)
	sites := make([]geo.FleetSite, len(in.Price))
	for i := range sites {
		sites[i] = geo.FleetSite{
			Name:    siteName(i),
			Cluster: dcmodel.HeterogeneousCluster(in.GroupsPerSite*fleetServersPerGroup, in.GroupsPerSite),
			Price:   &trace.Trace{Name: "price", Values: in.Price[i]},
			Portfolio: &renewable.Portfolio{
				OnsiteKW:   constTrace("r", in.OnsiteKW[i], n),
				OffsiteKWh: constTrace("f", fleetOffsiteKWh, n),
				RECsKWh:    float64(n) * fleetRECPerSlotKWh,
				Alpha:      1,
			},
		}
	}
	return sites
}

// constTrace is an n-slot trace holding v in every slot.
func constTrace(name string, v float64, n int) *trace.Trace {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = v
	}
	return &trace.Trace{Name: name, Values: vals}
}

package coca

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dcmodel"
	"repro/internal/geo"
	"repro/internal/gsd"
	"repro/internal/lyapunov"
	"repro/internal/renewable"
	"repro/internal/trace"
)

// TestConstructorsRejectInvalidBeta pins one β rule across the four
// Algorithm-1 constructors: β must be finite and non-negative. A negative
// or NaN β would poison every later slot's delay weight V·β.
func TestConstructorsRejectInvalidBeta(t *testing.T) {
	const slots = 4
	sched := lyapunov.ConstantV(1e4, 1, slots)
	cluster := func() *dcmodel.Cluster {
		return &dcmodel.Cluster{Groups: []dcmodel.Group{{Type: dcmodel.Opteron(), N: 20}}, Gamma: 0.95, PUE: 1}
	}
	sites := func() []geo.FleetSite {
		return []geo.FleetSite{{
			Name: "a", Cluster: cluster(), Price: trace.Constant("w", 0.05, slots),
			Portfolio: &renewable.Portfolio{
				OnsiteKW:   trace.Constant("r", 0, slots),
				OffsiteKWh: trace.Constant("f", 1, slots),
				Alpha:      1,
			},
		}}
	}
	ctors := map[string]func(beta float64) error{
		"core.New": func(beta float64) error {
			_, err := core.New(core.Config{
				Server: dcmodel.Opteron(), N: 20, Gamma: 0.95, PUE: 1, Beta: beta,
				Schedule: sched, Alpha: 1,
			})
			return err
		},
		"core.NewController": func(beta float64) error {
			_, err := core.NewController(cluster(), beta, sched, 1, 0, &gsd.Solver{})
			return err
		},
		"geo.NewHomogeneousFleet": func(beta float64) error {
			_, err := geo.NewHomogeneousFleet(sites(), beta, slots)
			return err
		},
		"geo.NewFleet": func(beta float64) error {
			_, err := geo.NewFleet(sites(), beta, slots, gsd.Options{})
			return err
		},
	}
	for name, ctor := range ctors {
		for _, beta := range []float64{0, 0.01} {
			if err := ctor(beta); err != nil {
				t.Errorf("%s rejected valid beta %v: %v", name, beta, err)
			}
		}
		for _, beta := range []float64{-1, math.NaN(), math.Inf(1)} {
			t.Run(fmt.Sprintf("%s/%v", name, beta), func(t *testing.T) {
				if ctor(beta) == nil {
					t.Errorf("%s accepted beta %v", name, beta)
				}
			})
		}
	}
}

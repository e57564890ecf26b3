package main

import (
	"reflect"
	"testing"

	"repro/internal/dcmodel"
)

func TestGenDecideDeterministic(t *testing.T) {
	c := dcmodel.HeterogeneousCluster(decideServers, decideGroups)
	a := genDecide(7, c, decideEpisode)
	if b := genDecide(7, c, decideEpisode); !reflect.DeepEqual(a, b) {
		t.Fatal("genDecide gave different streams for one seed")
	}
	if b := genDecide(8, c, decideEpisode); reflect.DeepEqual(a.Slots, b.Slots) {
		t.Fatal("genDecide gave one stream for two seeds")
	}
	for i, in := range a.Slots {
		if err := in.Validate(); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if in.LambdaRPS > c.Gamma*c.MaxCapacityRPS() {
			t.Fatalf("slot %d: λ %v above usable capacity", i, in.LambdaRPS)
		}
	}
}

// The stream must reach the surplus regime on some slots and the grid
// regime on others, or the decide workload stops covering both.
func TestGenDecideCoversBothRegimes(t *testing.T) {
	c := dcmodel.HeterogeneousCluster(decideServers, decideGroups)
	var above, below int
	for _, in := range genDecide(3, c, decideEpisode).Slots {
		switch {
		case in.OnsiteKW > c.PeakPowerKW():
			above++
		case in.OnsiteKW == 0:
			below++
		}
	}
	if above == 0 || below == 0 {
		t.Fatalf("%d slots with solar above peak power, %d with none", above, below)
	}
}

func TestGenFleetDeterministic(t *testing.T) {
	a := genFleet(7, 8, 4, fleetEpisode)
	if b := genFleet(7, 8, 4, fleetEpisode); !reflect.DeepEqual(a, b) {
		t.Fatal("genFleet gave different inputs for one seed")
	}
	if b := genFleet(8, 8, 4, fleetEpisode); reflect.DeepEqual(a.Lambda, b.Lambda) {
		t.Fatal("genFleet gave one load schedule for two seeds")
	}
	for t0, l := range a.Lambda {
		if l <= 0 || l >= 1 {
			t.Fatalf("slot %d: fleet load share %v outside (0, 1)", t0, l)
		}
	}
}

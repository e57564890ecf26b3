package sim_test

import (
	"encoding/json"
	"testing"

	"repro/internal/sim"
	"repro/internal/simtest"
)

// anchorRecorder wraps a policy and records the switching anchor every
// Decide call was shown, rejected attempts included.
type anchorRecorder struct {
	inner sim.Policy
	seen  []sim.Observation
}

func (a *anchorRecorder) Name() string { return a.inner.Name() }

func (a *anchorRecorder) Decide(obs sim.Observation) (sim.Config, error) {
	a.seen = append(a.seen, obs)
	return a.inner.Decide(obs)
}

func (a *anchorRecorder) Observe(fb sim.Feedback) { a.inner.Observe(fb) }

// checkAnchors asserts that every recorded observation's PrevActive is the
// Active of the previously operated slot (0 at slot 0).
func checkAnchors(t *testing.T, name string, seen []sim.Observation, recs []sim.SlotRecord) {
	t.Helper()
	if len(seen) == 0 {
		t.Fatalf("%s: no decisions recorded", name)
	}
	for _, obs := range seen {
		want := 0
		if obs.Slot > 0 {
			want = recs[obs.Slot-1].Active
		}
		if obs.PrevActive != want {
			t.Fatalf("%s: slot %d saw PrevActive %d, want %d (the operated Active of slot %d)",
				name, obs.Slot, obs.PrevActive, want, obs.Slot-1)
		}
	}
}

// TestObservationPrevActive pins the engine-owned switching anchor: the
// PrevActive a policy observes is always the previously *operated* Active
// — 0 at slot 0, untouched by a rejected step's configuration, and carried
// through an EngineCheckpoint restore.
func TestObservationPrevActive(t *testing.T) {
	sc, _, err := simtest.Build(simtest.Options{Slots: 2 * 24, N: 80, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sc.SwitchCostKWh = 0.231
	clean, err := sim.Run(sc, buildCoca(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	recs := clean.Records
	varied := false
	for i := 1; i < len(recs); i++ {
		varied = varied || recs[i].Active != recs[i-1].Active
	}
	if recs[0].Active == 0 || !varied {
		t.Fatal("active count never moves; the anchor would go untested")
	}

	t.Run("rejected-then-retried", func(t *testing.T) {
		const failAt = 9
		rec := &anchorRecorder{inner: &sabotagePolicy{inner: buildCoca(t, sc), failAt: failAt, fleet: sc.N, armed: true}}
		e, err := sim.NewEngine(sc, rec)
		if err != nil {
			t.Fatal(err)
		}
		for e.Slot() <= failAt {
			if err := e.Step(); err != nil && e.Slot() != failAt {
				t.Fatal(err)
			}
		}
		// Slot failAt was decided twice: the rejected attempt and the retry.
		if n := len(rec.seen); n != failAt+2 {
			t.Fatalf("%d decisions for %d slots plus one retry", n, failAt+1)
		}
		checkAnchors(t, "retry", rec.seen, recs)
	})

	t.Run("restored", func(t *testing.T) {
		const half = 17
		e, err := sim.NewEngine(sc, buildCoca(t, sc))
		if err != nil {
			t.Fatal(err)
		}
		for e.Slot() < half {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := json.Marshal(e.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		var ck sim.EngineCheckpoint
		if err := json.Unmarshal(blob, &ck); err != nil {
			t.Fatal(err)
		}
		// The restored engine's policy is fresh: only the engine can know
		// what it operated last.
		rec := &anchorRecorder{inner: buildCoca(t, sc)}
		resumed, err := sim.NewEngine(sc, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.RestoreFrom(ck); err != nil {
			t.Fatal(err)
		}
		if err := resumed.Step(); err != nil {
			t.Fatal(err)
		}
		if rec.seen[0].Slot != half {
			t.Fatalf("first resumed decision at slot %d, want %d", rec.seen[0].Slot, half)
		}
		checkAnchors(t, "restored", rec.seen, recs)
	})
}

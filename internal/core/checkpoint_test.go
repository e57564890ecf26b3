package core

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/gsd"
	"repro/internal/lyapunov"
	"repro/internal/sim"
	"repro/internal/simtest"
)

func ckptCluster(nGroups int) *dcmodel.Cluster {
	groups := make([]dcmodel.Group, nGroups)
	for i := range groups {
		groups[i] = dcmodel.Group{Type: dcmodel.Opteron(), N: 5}
	}
	return &dcmodel.Cluster{Groups: groups, Gamma: 0.95, PUE: 1}
}

func ckptController(t *testing.T, slots int) *Controller {
	t.Helper()
	c, err := NewController(ckptCluster(3), 0.02, lyapunov.ConstantV(5e5, 2, slots/2),
		1.0, 3.0, &gsd.Solver{Opts: gsd.Options{Delta: 1e4, MaxIters: 200, Seed: 23}})
	if err != nil {
		t.Fatal(err)
	}
	c.SwitchCostKWh = 0.231
	return c
}

// ckptEnv synthesizes a deterministic slot environment.
func ckptEnv(t int) (SlotEnv, float64) {
	ft := float64(t)
	env := SlotEnv{
		LambdaRPS:      30 + 15*math.Sin(ft/3),
		OnsiteKW:       math.Max(0, 2*math.Sin(ft/5)),
		PriceUSDPerKWh: 0.06 + 0.02*math.Cos(ft/4),
	}
	return env, math.Max(0, 1.5+math.Sin(ft/6))
}

// driveController steps-and-settles the controller over [from, to) and
// returns the outcomes.
func driveController(t *testing.T, c *Controller, from, to int) []SlotOutcome {
	t.Helper()
	out := make([]SlotOutcome, 0, to-from)
	for i := from; i < to; i++ {
		env, offsite := ckptEnv(i)
		o, err := c.Step(env)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		c.Settle(o, offsite)
		out = append(out, o)
	}
	return out
}

// TestControllerCheckpointResumeParity is the acceptance invariant at the
// controller layer: a run interrupted at slot N and restored through a
// JSON round-trip produces bit-identical decisions, costs and deficit-queue
// trajectory to an uninterrupted run.
func TestControllerCheckpointResumeParity(t *testing.T) {
	const slots = 12

	want := driveController(t, ckptController(t, slots), 0, slots)

	first := ckptController(t, slots)
	got := driveController(t, first, 0, slots/2)
	ck, err := first.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	var restoredCk ControllerCheckpoint
	if err := json.Unmarshal(blob, &restoredCk); err != nil {
		t.Fatal(err)
	}
	second := ckptController(t, slots)
	if err := second.RestoreFrom(restoredCk); err != nil {
		t.Fatal(err)
	}
	if second.Slot() != slots/2 {
		t.Fatalf("restored slot cursor %d, want %d", second.Slot(), slots/2)
	}
	if second.Queue() != first.Queue() {
		t.Fatalf("restored queue %v, want %v", second.Queue(), first.Queue())
	}
	got = append(got, driveController(t, second, slots/2, slots)...)

	if len(got) != len(want) {
		t.Fatalf("%d outcomes, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("slot %d diverges after restore:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestControllerScheduleExhausted pins the daemon-facing failure mode: a
// Step past the schedule horizon returns ErrScheduleExhausted instead of
// panicking inside VSchedule.
func TestControllerScheduleExhausted(t *testing.T) {
	const slots = 4
	c := ckptController(t, slots)
	driveController(t, c, 0, slots)
	env, _ := ckptEnv(slots)
	if _, err := c.Step(env); !errors.Is(err, ErrScheduleExhausted) {
		t.Fatalf("Step past horizon = %v, want ErrScheduleExhausted", err)
	}
}

func TestControllerCheckpointRejectsInvalid(t *testing.T) {
	c := ckptController(t, 12)
	driveController(t, c, 0, 3)
	valid, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*ControllerCheckpoint){
		"version":     func(ck *ControllerCheckpoint) { ck.Version = 0 },
		"slot":        func(ck *ControllerCheckpoint) { ck.Slot = -1 },
		"prev-active": func(ck *ControllerCheckpoint) { ck.PrevActive = -2 },
		"queue":       func(ck *ControllerCheckpoint) { ck.Queue.Alpha = -1 },
		"solver-blob": func(ck *ControllerCheckpoint) { ck.Solver = []byte("{") },
	}
	for name, mutate := range cases {
		ck := valid
		mutate(&ck)
		if err := ckptController(t, 12).RestoreFrom(ck); err == nil {
			t.Errorf("%s: RestoreFrom accepted an invalid checkpoint", name)
		}
	}
}

// TestControllerRestoreAtomic pins all-or-nothing restore: a snapshot
// whose queue is valid but whose solver blob is rejected must leave the
// controller's queue, slot cursor, switching anchor and solver exactly as
// they were, so the next Step matches an untouched twin's.
func TestControllerRestoreAtomic(t *testing.T) {
	c, twin := ckptController(t, 12), ckptController(t, 12)
	driveController(t, c, 0, 3)
	driveController(t, twin, 0, 3)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Every field but the solver blob is valid and differs from c's state.
	ck.Slot += 2
	ck.PrevActive++
	ck.Queue.Q += 7
	ck.Solver = []byte(`{"version":1,"warm":[-1]}`)
	if err := c.RestoreFrom(ck); err == nil {
		t.Fatal("RestoreFrom accepted a negative warm-start speed")
	}
	if c.Queue() != twin.Queue() || c.Slot() != twin.Slot() {
		t.Fatalf("failed restore moved state: queue %v slot %d, want %v slot %d",
			c.Queue(), c.Slot(), twin.Queue(), twin.Slot())
	}
	got := driveController(t, c, 3, 4)
	want := driveController(t, twin, 3, 4)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("next Step after a failed restore diverges:\ngot  %+v\nwant %+v", got[0], want[0])
	}
}

// TestPolicyCheckpointRoundTrip checks the sim-side policy snapshot by
// behaviour: a run checkpointed at half time (engine and policy, through
// JSON) and resumed into fresh instances matches the uninterrupted run
// record for record, with switching cost engaged so the engine-owned
// anchor matters. The full span/observer resume parity lives in
// internal/simtest.
func TestPolicyCheckpointRoundTrip(t *testing.T) {
	sc, _, err := simtest.Build(simtest.Options{Slots: 48, N: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sc.SwitchCostKWh = 0.231
	build := func() (*Policy, *sim.Engine) {
		p, err := New(FromScenario(sc, lyapunov.ConstantV(5e5, 2, 24)))
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.NewEngine(sc, p)
		if err != nil {
			t.Fatal(err)
		}
		return p, e
	}
	stepTo := func(e *sim.Engine, slot int) {
		for e.Slot() < slot {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, ref := build()
	stepTo(ref, sc.Slots)

	// Interrupt inside the first frame, so the queue is non-empty.
	const half = 20
	p, e := build()
	stepTo(e, half)
	if p.Queue() == 0 {
		t.Fatal("queue empty at the checkpoint; the round trip would not exercise it")
	}
	polBlob, err := json.Marshal(p.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	engBlob, err := json.Marshal(e.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	var polCk lyapunov.QueueCheckpoint
	if err := json.Unmarshal(polBlob, &polCk); err != nil {
		t.Fatal(err)
	}
	var engCk sim.EngineCheckpoint
	if err := json.Unmarshal(engBlob, &engCk); err != nil {
		t.Fatal(err)
	}
	q, resumed := build()
	if err := q.RestoreFrom(polCk); err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreFrom(engCk); err != nil {
		t.Fatal(err)
	}
	if q.Queue() != p.Queue() {
		t.Fatalf("restored queue %v, want %v", q.Queue(), p.Queue())
	}
	stepTo(resumed, sc.Slots)
	if !reflect.DeepEqual(resumed.Result().Records, ref.Result().Records) {
		t.Fatal("resumed run diverges from the uninterrupted run")
	}

	bad := polCk
	bad.Version = 2
	if err := q.RestoreFrom(bad); err == nil {
		t.Fatal("RestoreFrom accepted an unknown version")
	}
}

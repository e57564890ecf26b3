// Package core implements COCA (Algorithm 1), the paper's primary
// contribution: an online algorithm that minimizes data-center operational
// cost while satisfying long-term carbon neutrality, without long-term
// future information.
//
// Each slot t, COCA observes λ(t), r(t) and w(t), resets the virtual
// carbon-deficit queue at frame boundaries (so the cost-carbon parameter V
// can be retuned per frame), and solves P3 (Eq. 16):
//
//	min V·g(λ,x) + q(t)·[p(λ,x) − r(t)]^+
//
// — equivalently a dcmodel.SlotProblem with weights We = V·w(t) + q(t) and
// Wd = V·β. After the slot, the realized off-site generation f(t) drives
// the queue update of Eq. (17). As q(t) grows the electricity weight grows
// with it, realizing "if violate neutrality, then use less electricity".
//
// Two entry points are provided: Policy, which plugs into the sim engine's
// homogeneous-fleet year-long runs using the exact symmetric P3 solver, and
// Controller, the group-level form that works with any p3.Solver — in
// particular GSD, the paper's distributed solver — for heterogeneous
// clusters. Both embed one kernel that owns the shared Algorithm-1 state —
// V schedule, β and the deficit queue with its gauge — and its
// bookkeeping: frame reset, V lookup, q(t) → P3 weights, the Eq. (17)
// update and checkpointing of q. Each entry point keeps its own per-slot
// solve: Policy picks a server count, Controller a speed vector. Policy
// takes its switching-cost anchor from the engine (Observation.PrevActive);
// Controller, which has no engine, owns its slot cursor and anchor.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dcmodel"
	"repro/internal/lyapunov"
	"repro/internal/p3"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ErrScheduleExhausted is returned by Controller.Step when the slot cursor
// has moved past the configured V schedule's horizon.
var ErrScheduleExhausted = errors.New("core: V schedule exhausted")

// Config parameterizes COCA for the homogeneous sim engine.
type Config struct {
	Server dcmodel.ServerType
	N      int
	Gamma  float64
	PUE    float64
	Beta   float64

	// Schedule fixes frames and per-frame V_r (Algorithm 1 lines 2–4).
	Schedule lyapunov.VSchedule
	// Alpha and RECPerSlotKWh parameterize the deficit-queue update Eq. (17).
	Alpha         float64
	RECPerSlotKWh float64

	// SwitchCostKWh internalizes the Fig. 5(d) switching cost into P3 (the
	// penalty per toggled server is V·w(t)·SwitchCostKWh).
	SwitchCostKWh float64

	// Tariff optionally makes the electricity cost nonlinear (§2.1): P3's
	// grid term becomes V·w(t)·Tariff.Cost(g) + q(t)·g (the deficit queue
	// still prices raw kWh, since carbon accounting is in energy).
	Tariff dcmodel.Tariff

	// MaxPowerKW and MaxDelayCost are the optional §3.1 per-slot
	// constraints, enforced inside P3. Zero disables.
	MaxPowerKW   float64
	MaxDelayCost float64
}

// kernel is the Algorithm-1 bookkeeping both COCA drivers share: the V
// schedule and β, the carbon-deficit queue q(t) of Eq. (17) and its
// optional telemetry gauge. Each driver keeps its own per-slot P3 solve.
type kernel struct {
	sched lyapunov.VSchedule
	beta  float64
	queue *lyapunov.DeficitQueue
	gauge *telemetry.Gauge
}

// newKernel validates the parameters every COCA driver shares.
func newKernel(beta float64, sched lyapunov.VSchedule, alpha, recPerSlotKWh float64) (kernel, error) {
	if !(beta >= 0) || math.IsInf(beta, 1) {
		return kernel{}, fmt.Errorf("core: beta %v must be finite and non-negative", beta)
	}
	if err := sched.Validate(sched.Slots()); err != nil {
		return kernel{}, err
	}
	return kernel{sched: sched, beta: beta, queue: lyapunov.NewDeficitQueue(alpha, recPerSlotKWh)}, nil
}

// open starts slot t: at a frame boundary q(t) resets (Algorithm 1 lines
// 2–4). It returns the frame's V_r.
func (k *kernel) open(t int) float64 {
	if k.sched.FrameStart(t) {
		k.queue.Reset()
		k.setGauge()
	}
	return k.sched.V(t)
}

// weights returns q(t) and the Eq. (16) P3 weights at V = v and price w.
func (k *kernel) weights(v, w float64) (q, we, wd float64) {
	q = k.queue.Len()
	we, wd = dcmodel.P3Weights(v, q, w, k.beta)
	return q, we, wd
}

// settle applies the Eq. (17) update with the slot's realized grid draw
// and off-site generation.
func (k *kernel) settle(gridKWh, offsiteKWh float64) {
	k.queue.Update(gridKWh, offsiteKWh)
	k.setGauge()
}

func (k *kernel) setGauge() {
	if k.gauge != nil {
		k.gauge.Set(k.queue.Len())
	}
}

// Queue exposes the current deficit-queue length q(t).
func (k *kernel) Queue() float64 { return k.queue.Len() }

// InstrumentQueue exports the carbon-deficit queue length q(t) through
// the given telemetry gauge, updated on every frame reset, settle and
// restore.
func (k *kernel) InstrumentQueue(g *telemetry.Gauge) { k.gauge = g }

// Policy is COCA as a sim.Policy over a homogeneous fleet. Its only
// cross-slot state is the kernel's deficit queue: the switching-cost
// anchor is the engine's, delivered as Observation.PrevActive.
type Policy struct {
	kernel
	cfg       Config
	vOverride float64
}

// New builds a COCA policy. The schedule must cover the intended horizon;
// Run validates that via the scenario.
func New(cfg Config) (*Policy, error) {
	if err := cfg.Server.Validate(); err != nil {
		return nil, err
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("core: fleet size %d", cfg.N)
	}
	k, err := newKernel(cfg.Beta, cfg.Schedule, cfg.Alpha, cfg.RECPerSlotKWh)
	if err != nil {
		return nil, err
	}
	return &Policy{kernel: k, cfg: cfg}, nil
}

// FromScenario derives a COCA config from a sim scenario plus a V schedule.
func FromScenario(sc *sim.Scenario, sched lyapunov.VSchedule) Config {
	return Config{
		Server: sc.Server, N: sc.N, Gamma: sc.Gamma, PUE: sc.PUE, Beta: sc.Beta,
		Schedule:      sched,
		Alpha:         sc.Portfolio.Alpha,
		RECPerSlotKWh: sc.Portfolio.RECPerSlotKWh(sc.Slots),
		SwitchCostKWh: sc.SwitchCostKWh,
		Tariff:        sc.Tariff,
		MaxPowerKW:    sc.MaxPowerKW,
		MaxDelayCost:  sc.MaxDelayCost,
	}
}

// SetV overrides the schedule's cost-carbon parameter for subsequent slots
// without touching frame boundaries — used by ablation studies that vary V
// while keeping (or suppressing) queue resets. Zero restores the schedule.
func (p *Policy) SetV(v float64) { p.vOverride = v }

// Name implements sim.Policy.
func (p *Policy) Name() string { return "coca" }

// Decide implements sim.Policy: Algorithm 1 lines 2–5.
func (p *Policy) Decide(obs sim.Observation) (sim.Config, error) {
	v := p.open(obs.Slot)
	if p.vOverride > 0 {
		v = p.vOverride
	}
	q, we, wd := p.weights(v, obs.PriceUSDPerKWh)
	hp := &p3.HomogeneousProblem{
		Type: p.cfg.Server, N: p.cfg.N,
		Gamma: p.cfg.Gamma, PUE: p.cfg.PUE,
		LambdaRPS: obs.LambdaRPS,
		We:        we, Wd: wd,
		OnsiteKW:     obs.OnsiteKW,
		SwitchWeight: v * obs.PriceUSDPerKWh * p.cfg.SwitchCostKWh,
		PrevActive:   obs.PrevActive,
		MaxPowerKW:   p.cfg.MaxPowerKW,
		MaxDelayCost: p.cfg.MaxDelayCost,
	}
	if tariff := p.cfg.Tariff; tariff != nil {
		w := obs.PriceUSDPerKWh
		hp.GridCostFn = func(g float64) float64 { return v*w*tariff.Cost(g) + q*g }
	}
	sol, err := hp.Solve()
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{Speed: sol.Speed, Active: sol.Active}, nil
}

// Observe implements sim.Policy: the Eq. (17) queue update with the
// realized grid draw and off-site generation.
func (p *Policy) Observe(fb sim.Feedback) { p.settle(fb.GridKWh, fb.OffsiteKWh) }

var _ sim.Policy = (*Policy)(nil)

// Controller is the group-level COCA loop for heterogeneous clusters: the
// caller supplies any P3 solver (typically gsd.Solver, the paper's
// distributed algorithm) and feeds environments slot by slot.
type Controller struct {
	kernel
	Cluster *dcmodel.Cluster
	Solver  p3.Solver

	// SlotHours, Tariff and SwitchCostKWh are the Ledger extensions of
	// the sim path — slot duration, §2.1 nonlinear pricing and the
	// Fig. 5(d) toggling charge. The zero values reproduce the paper's
	// defaults; set them (before the first Step) to make heterogeneous
	// accounting match a sim.Scenario carrying the same knobs.
	SlotHours     float64
	Tariff        dcmodel.Tariff
	SwitchCostKWh float64

	slot int

	// prevActive anchors the switching charge. It is committed only when
	// the slot settles (Settle), so a failed or abandoned Step can be
	// retried without desyncing the anchor.
	prevActive int
}

// NewController builds a group-level COCA controller.
func NewController(cluster *dcmodel.Cluster, beta float64, sched lyapunov.VSchedule, alpha, recPerSlotKWh float64, solver p3.Solver) (*Controller, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if solver == nil {
		return nil, fmt.Errorf("core: nil P3 solver")
	}
	k, err := newKernel(beta, sched, alpha, recPerSlotKWh)
	if err != nil {
		return nil, err
	}
	return &Controller{kernel: k, Cluster: cluster, Solver: solver}, nil
}

// SlotEnv is one slot's environment for the controller.
type SlotEnv struct {
	LambdaRPS      float64
	OnsiteKW       float64
	PriceUSDPerKWh float64
}

// SlotOutcome is the controller's record of one decided-and-operated slot.
type SlotOutcome struct {
	Solution dcmodel.Solution
	Cost     dcmodel.CostBreakdown
	Queue    float64 // q(t) used in the slot's P3 weights
	// Active is the solution's active-server count; Settle commits it as
	// the next slot's switching-cost anchor.
	Active int
}

// Step runs Algorithm 1 for one slot: frame reset, P3 via the plugged
// solver, cost accounting. Call Settle afterwards with the realized f(t);
// a Step that is never settled (rejected by the caller, retried after a
// failure) leaves the controller's state untouched.
func (c *Controller) Step(env SlotEnv) (SlotOutcome, error) {
	if c.slot >= c.sched.Slots() {
		// A long-running controller must outlive its schedule gracefully:
		// indexing V past the horizon would panic inside VSchedule.
		return SlotOutcome{}, fmt.Errorf("core: slot %d beyond the schedule horizon %d: %w",
			c.slot, c.sched.Slots(), ErrScheduleExhausted)
	}
	q, we, wd := c.weights(c.open(c.slot), env.PriceUSDPerKWh)
	prob := &dcmodel.SlotProblem{
		Cluster:   c.Cluster,
		LambdaRPS: env.LambdaRPS,
		We:        we, Wd: wd,
		OnsiteKW: env.OnsiteKW,
	}
	sol, err := c.Solver.Solve(prob)
	if err != nil {
		return SlotOutcome{}, fmt.Errorf("core: slot %d: %w", c.slot, err)
	}
	// CostWithSwitching charges through the shared dcmodel.Ledger kernel
	// with the full extension set — slot duration, nonlinear tariff and
	// the toggling charge against the last settled slot — so the
	// controller's accounting matches internal/sim exactly.
	active := c.Cluster.ActiveServers(sol.Speeds)
	cost := c.Cluster.CostWithSwitching(dcmodel.CostParams{
		PriceUSDPerKWh: env.PriceUSDPerKWh,
		OnsiteKW:       env.OnsiteKW,
		Beta:           c.beta,
		SlotHours:      c.SlotHours,
		Tariff:         c.Tariff,
		SwitchCostKWh:  c.SwitchCostKWh,
	}, sol.Speeds, sol.Load, active-c.prevActive)
	return SlotOutcome{Solution: sol, Cost: cost, Queue: q, Active: active}, nil
}

// Settle finishes the slot with the realized off-site generation: the
// Eq. (17) queue update, the switching-anchor commit, and the clock
// advance. Only settled outcomes move controller state — the same
// commit-on-settle discipline as the sim engine's.
func (c *Controller) Settle(out SlotOutcome, offsiteKWh float64) {
	c.settle(out.Cost.GridKWh, offsiteKWh)
	c.prevActive = out.Active
	c.slot++
}

// Slot returns the next slot index to be stepped.
func (c *Controller) Slot() int { return c.slot }

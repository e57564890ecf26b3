package coca

import (
	"io"
	"net"
	"net/http"

	"repro/internal/baseline"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dcmodel"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/gsd"
	"repro/internal/lyapunov"
	"repro/internal/p3"
	"repro/internal/predict"
	"repro/internal/price"
	"repro/internal/renewable"
	"repro/internal/reqsim"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/trace"
)

// Data-center model (paper §2).
type (
	// ServerType is a server model with discrete DVFS speed levels.
	ServerType = dcmodel.ServerType
	// SpeedLevel is one DVFS operating point.
	SpeedLevel = dcmodel.SpeedLevel
	// Group is a batch of identical servers sharing one speed decision.
	Group = dcmodel.Group
	// Cluster is a data center: groups plus the γ utilization cap and PUE.
	Cluster = dcmodel.Cluster
	// SlotProblem is the per-slot optimization P3 in weight form.
	SlotProblem = dcmodel.SlotProblem
	// Solution is a solved slot configuration.
	Solution = dcmodel.Solution
	// CostParams prices a configuration (w(t), r(t), β).
	CostParams = dcmodel.CostParams
	// Ledger is the shared slot-cost kernel: every execution path (the sim
	// engine, the controller, the multi-site federation, the baseline
	// planners) charges slots through it.
	Ledger = dcmodel.Ledger
	// SlotCharge is a Ledger's fully priced slot outcome.
	SlotCharge = dcmodel.SlotCharge
	// CostBreakdown decomposes a slot's cost (same type as SlotCharge).
	CostBreakdown = dcmodel.CostBreakdown
	// Tariff generalizes the electricity cost to convex nonlinear pricing
	// (§2.1 extension).
	Tariff = dcmodel.Tariff
	// FlatTariff is the paper's default linear tariff.
	FlatTariff = dcmodel.FlatTariff
	// Tier is one block of an inclining-block tariff.
	Tier = dcmodel.Tier
	// TieredTariff is a convex inclining-block tariff.
	TieredTariff = dcmodel.TieredTariff
)

// NewTieredTariff validates and builds an inclining-block tariff.
func NewTieredTariff(tiers []Tier) (*TieredTariff, error) { return dcmodel.NewTieredTariff(tiers) }

// Opteron returns the paper's measured quad-core AMD Opteron 2380 profile.
func Opteron() ServerType { return dcmodel.Opteron() }

// PaperCluster returns the paper's 216,000-server deployment in the given
// number of homogeneous groups.
func PaperCluster(numGroups int) *Cluster { return dcmodel.PaperCluster(numGroups) }

// HeterogeneousCluster returns a mixed-generation fleet (§2.1 motivates
// heterogeneity by differing purchase dates).
func HeterogeneousCluster(totalServers, numGroups int) *Cluster {
	return dcmodel.HeterogeneousCluster(totalServers, numGroups)
}

// P3Weights maps (V, q, w, β) to the P3 objective weights of Eq. (16).
func P3Weights(v, q, priceUSDPerKWh, beta float64) (we, wd float64) {
	return dcmodel.P3Weights(v, q, priceUSDPerKWh, beta)
}

// Traces (paper §5.1).
type Trace = trace.Trace

// FIUYear synthesizes the FIU-like yearly workload trace (normalized).
func FIUYear(seed uint64) *Trace { return trace.FIUYear(seed) }

// MSRYear synthesizes the MSR-like yearly workload trace with ±noiseFrac
// per-hour noise (the paper uses 0.4).
func MSRYear(seed uint64, noiseFrac float64) *Trace { return trace.MSRYear(seed, noiseFrac) }

// CAISOYear synthesizes one year of hourly electricity prices in $/kWh.
func CAISOYear(seed uint64) *Trace { return price.CAISOYear(seed) }

// SolarYear and WindYear synthesize normalized renewable-generation traces.
func SolarYear(seed uint64) *Trace { return renewable.SolarYear(seed) }

// WindYear synthesizes a normalized wind-farm output trace.
func WindYear(seed uint64) *Trace { return renewable.WindYear(seed) }

// Portfolio is a renewable position: on-site r(t), off-site f(t), RECs Z
// and the capping aggressiveness α of Eq. (10).
type Portfolio = renewable.Portfolio

// COCA (paper §4).
type (
	// COCAConfig parameterizes the homogeneous-fleet COCA policy.
	COCAConfig = core.Config
	// COCA is the paper's Algorithm 1 as a simulation policy.
	COCA = core.Policy
	// Controller is the group-level COCA loop for heterogeneous clusters.
	Controller = core.Controller
	// SlotEnv is one slot's environment for the controller.
	SlotEnv = core.SlotEnv
	// SlotOutcome is the controller's record of one operated slot.
	SlotOutcome = core.SlotOutcome
	// VSchedule fixes frames and the per-frame cost-carbon parameters V_r.
	VSchedule = lyapunov.VSchedule
	// DeficitQueue is the virtual carbon-deficit queue of Eq. (17).
	DeficitQueue = lyapunov.DeficitQueue
)

// NewCOCA builds the COCA policy.
func NewCOCA(cfg COCAConfig) (*COCA, error) { return core.New(cfg) }

// COCAFromScenario derives a COCA config from a scenario and a V schedule.
func COCAFromScenario(sc *Scenario, sched VSchedule) COCAConfig {
	return core.FromScenario(sc, sched)
}

// NewController builds the group-level COCA controller around any P3 solver.
func NewController(cluster *Cluster, beta float64, sched VSchedule, alpha, recPerSlotKWh float64, solver P3Solver) (*Controller, error) {
	return core.NewController(cluster, beta, sched, alpha, recPerSlotKWh, solver)
}

// ConstantV returns a single-V schedule over the given frames × slots.
func ConstantV(v float64, frames, t int) VSchedule { return lyapunov.ConstantV(v, frames, t) }

// NewDeficitQueue builds the Eq. (17) carbon-deficit queue with capping
// aggressiveness alpha and per-slot REC allowance z.
func NewDeficitQueue(alpha, recPerSlotKWh float64) *DeficitQueue {
	return lyapunov.NewDeficitQueue(alpha, recPerSlotKWh)
}

// P3 solvers (paper §4.2).
type (
	// P3Solver solves one slot's P3 instance.
	P3Solver = p3.Solver
	// GSDOptions configures the Gibbs-sampling distributed optimizer.
	GSDOptions = gsd.Options
	// GSDResult is a GSD run outcome.
	GSDResult = gsd.Result
	// GSDSolver adapts GSD to the P3Solver interface.
	GSDSolver = gsd.Solver
)

// SolveGSD runs the sequential GSD engine (Algorithm 2).
func SolveGSD(p *SlotProblem, opts GSDOptions) (GSDResult, error) { return gsd.Solve(p, opts) }

// SolveGSDDistributed runs GSD as a goroutine-per-group message-passing
// system with random-timer competition.
func SolveGSDDistributed(p *SlotProblem, opts GSDOptions) (GSDResult, error) {
	return gsd.SolveDistributed(p, opts)
}

// EnumerateP3 exhaustively solves small P3 instances (test oracle).
func EnumerateP3(p *SlotProblem) (Solution, error) { return p3.Enumerate(p) }

// Simulation engine (paper §5).
type (
	// Scenario bundles fleet, traces, renewable portfolio and horizon.
	Scenario = sim.Scenario
	// Policy is a per-slot decision maker driven by the engine.
	Policy = sim.Policy
	// Engine is the resumable step-wise slot executor behind Run: it
	// exposes Step/Done/Result plus per-slot observer callbacks.
	Engine = sim.Engine
	// Observer is a per-slot instrumentation hook receiving each operated
	// slot's record.
	Observer = sim.Observer
	// SlotRecord is one operated slot's full accounting.
	SlotRecord = sim.SlotRecord
	// RunResult is a completed simulation.
	RunResult = sim.Result
	// Summary aggregates a run against the carbon budget.
	Summary = sim.Summary
	// ScenarioOptions tunes the calibrated scenario builder.
	ScenarioOptions = simtest.Options
)

// Run drives a policy over a scenario.
func Run(sc *Scenario, p Policy) (*RunResult, error) { return sim.Run(sc, p) }

// RunObserved is Run with per-slot instrumentation hooks.
func RunObserved(sc *Scenario, p Policy, observers ...Observer) (*RunResult, error) {
	return sim.RunObserved(sc, p, observers...)
}

// NewEngine prepares a resumable step-wise run of a policy over a
// scenario; step it with Engine.Step until Engine.Done.
func NewEngine(sc *Scenario, p Policy, observers ...Observer) (*Engine, error) {
	return sim.NewEngine(sc, p, observers...)
}

// Summarize aggregates a run.
func Summarize(sc *Scenario, res *RunResult) Summary { return sim.Summarize(sc, res) }

// SummarizeWithTrueUp additionally prices any budget shortfall as an
// end-of-period REC purchase (§4.3).
func SummarizeWithTrueUp(sc *Scenario, res *RunResult, recPriceUSDPerKWh float64) Summary {
	return sim.SummarizeWithTrueUp(sc, res, recPriceUSDPerKWh)
}

// BuildScenario constructs a calibrated scenario following the paper's
// §5.1 pipeline (unaware reference → on-site scaling → budget sizing). It
// returns the scenario and the carbon-unaware reference grid usage in kWh.
func BuildScenario(o ScenarioOptions) (*Scenario, float64, error) { return simtest.Build(o) }

// Baselines (paper §5.2).
type (
	// Unaware is the carbon-unaware instantaneous cost minimizer.
	Unaware = baseline.Unaware
	// OPT is the optimal offline algorithm (Lagrangian dual).
	OPT = baseline.OPT
	// PerfectHP is the 48-hour prediction heuristic of §5.2.2.
	PerfectHP = baseline.PerfectHP
	// Lookahead is the T-step lookahead benchmark P2 of §3.2.
	Lookahead = baseline.Lookahead
)

// NewUnaware builds the carbon-unaware baseline.
func NewUnaware(sc *Scenario) *Unaware { return baseline.NewUnaware(sc) }

// NewOPT plans the offline optimum for the scenario's budget.
func NewOPT(sc *Scenario) (*OPT, error) { return baseline.NewOPT(sc) }

// NewPerfectHP plans the prediction-based heuristic with the given
// prediction window in hours (the paper uses 48).
func NewPerfectHP(sc *Scenario, frameHours int) (*PerfectHP, error) {
	return baseline.NewPerfectHP(sc, frameHours)
}

// NewLookahead plans the T-step lookahead benchmark.
func NewLookahead(sc *Scenario, T int) (*Lookahead, error) { return baseline.NewLookahead(sc, T) }

// Experiments (paper §5): drivers regenerating every figure.
type ExperimentConfig = experiments.Config

// DefaultExperiments returns the paper-scale experiment configuration.
func DefaultExperiments() ExperimentConfig { return experiments.Default() }

// Batch workloads (§2.3 isolation): a deferrable-job queue scheduled EDF
// onto the spare cycles of servers the interactive policy powered on.
type (
	// BatchJob is one deferrable batch request.
	BatchJob = batch.Job
	// BatchScheduler runs EDF over per-slot spare capacity.
	BatchScheduler = batch.Scheduler
	// BatchStepResult reports one slot of batch scheduling.
	BatchStepResult = batch.StepResult
)

// NewBatchScheduler returns an empty batch scheduler starting at slot 0.
func NewBatchScheduler() *BatchScheduler { return batch.NewScheduler() }

// BatchSpareServerHours derives the per-slot spare capacity a run left on
// its powered-on servers, in full-speed server-hours.
func BatchSpareServerHours(sc *Scenario, res *RunResult) []float64 {
	return batch.SpareServerHours(sc, res)
}

// BatchWorkload synthesizes a deterministic deferrable-job stream.
func BatchWorkload(seed uint64, slots int, jobsPerSlot, meanSizeServerHours float64, minSlack, maxSlack int) []BatchJob {
	return batch.Workload(seed, slots, jobsPerSlot, meanSizeServerHours, minSlack, maxSlack)
}

// Geographic load balancing (multi-site extension; the setting of the
// paper's refs [21][29][32]).
type (
	// GeoSite is one data center in a federation.
	GeoSite = geo.Site
	// GeoSystem is a federation with per-site carbon-deficit queues.
	GeoSystem = geo.System
	// GeoStepOutcome is one stepped federation slot.
	GeoStepOutcome = geo.StepOutcome
)

// NewGeoSystem assembles a multi-site federation.
func NewGeoSystem(sites []GeoSite, beta float64, slots int) (*GeoSystem, error) {
	return geo.NewSystem(sites, beta, slots)
}

// Workload forecasting (for prediction-based budgeting studies).
type (
	// Forecaster produces hourly workload forecasts.
	Forecaster = predict.Forecaster
	// SeasonalNaive forecasts with the value one period earlier.
	SeasonalNaive = predict.SeasonalNaive
	// ProfileEWMA smooths an hour-of-week profile.
	ProfileEWMA = predict.ProfileEWMA
	// NoisyOracle is the truth perturbed by bounded uniform noise.
	NoisyOracle = predict.NoisyOracle
)

// ForecastMAPE returns the mean absolute percentage error of a forecast.
func ForecastMAPE(truth, forecast *Trace) float64 { return predict.MAPE(truth, forecast) }

// NewPerfectHPWithForecast builds the prediction-based heuristic with an
// arbitrary (possibly imperfect) workload forecast driving its caps.
func NewPerfectHPWithForecast(sc *Scenario, frameHours int, forecast *Trace) (*PerfectHP, error) {
	return baseline.NewPerfectHPWithForecast(sc, frameHours, forecast)
}

// Telemetry (run instrumentation): a lightweight metrics registry the
// engine, the GSD solver, the experiment pool and the cocasim CLI all feed.
type (
	// TelemetryRegistry holds named counters, gauges and histograms.
	TelemetryRegistry = telemetry.Registry
	// RunMetrics instruments a stream of settled simulation slots.
	RunMetrics = telemetry.RunMetrics
	// SolveMetrics instruments a P3 solver (iterations, acceptances,
	// patience exits, cold fallbacks, per-solve wall time).
	SolveMetrics = telemetry.SolveMetrics
	// PoolMetrics instruments the experiment worker pool.
	PoolMetrics = telemetry.PoolMetrics
	// SlotStreamer writes one NDJSON record per settled slot.
	SlotStreamer = telemetry.SlotStreamer
	// LabeledCounter is a counter vector keyed by label tuples
	// (e.g. per-site series rendered as name{site="…"} on /metrics).
	LabeledCounter = telemetry.LabeledCounter
	// LabeledGauge is a gauge vector keyed by label tuples.
	LabeledGauge = telemetry.LabeledGauge
	// LabeledHistogram is a histogram vector keyed by label tuples.
	LabeledHistogram = telemetry.LabeledHistogram
	// FleetMetrics instruments a geo fleet run with site-labeled series;
	// attach with geo.Fleet.Instrument.
	FleetMetrics = telemetry.FleetMetrics
	// RuntimeMetrics is the Go runtime collector (goroutines, heap, GC),
	// refreshed on every registry scrape.
	RuntimeMetrics = telemetry.RuntimeMetrics
)

// NewTelemetryRegistry returns an empty metrics registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewRunMetrics registers run instruments under prefix; attach
// RunMetrics.Observer to an Engine to feed them.
func NewRunMetrics(r *TelemetryRegistry, prefix string) *RunMetrics {
	return telemetry.NewRunMetrics(r, prefix)
}

// NewSolveMetrics registers solver instruments under prefix; set them as
// GSDOptions.Metrics.
func NewSolveMetrics(r *TelemetryRegistry, prefix string) *SolveMetrics {
	return telemetry.NewSolveMetrics(r, prefix)
}

// NewPoolMetrics registers worker-pool instruments under prefix.
func NewPoolMetrics(r *TelemetryRegistry, prefix string) *PoolMetrics {
	return telemetry.NewPoolMetrics(r, prefix)
}

// NewSlotStreamer streams settled slots as NDJSON to w; attach
// SlotStreamer.Observer to an Engine.
func NewSlotStreamer(w io.Writer) *SlotStreamer { return telemetry.NewSlotStreamer(w) }

// NewGeoMetrics registers federation instruments under prefix; attach
// them with GeoSystem.Instrument.
func NewGeoMetrics(r *TelemetryRegistry, prefix string) *GeoMetrics {
	return telemetry.NewGeoMetrics(r, prefix)
}

// NewBatchMetrics registers batch-scheduler instruments under prefix;
// attach them with BatchScheduler.Instrument.
func NewBatchMetrics(r *TelemetryRegistry, prefix string) *BatchMetrics {
	return telemetry.NewBatchMetrics(r, prefix)
}

// NewFleetMetrics registers fleet instruments (site-labeled) under
// prefix; attach them with geo.Fleet.Instrument.
func NewFleetMetrics(r *TelemetryRegistry, prefix string) *FleetMetrics {
	return telemetry.NewFleetMetrics(r, prefix)
}

// NewRuntimeMetrics registers the Go runtime collector under prefix and
// hooks it into the registry's scrape path, so /metrics carries process
// health next to the controller series.
func NewRuntimeMetrics(r *TelemetryRegistry, prefix string) *RuntimeMetrics {
	return telemetry.NewRuntimeMetrics(r, prefix)
}

// ServeTelemetry serves the registry over HTTP (/metrics, /spans,
// /debug/vars, /debug/pprof) on addr and returns the bound listener
// address. tr may be nil when no span tracing is active. Callers own the
// server: Shutdown (or Close) it when the run ends to release the
// listener.
func ServeTelemetry(addr string, r *TelemetryRegistry, tr *Tracer) (*http.Server, net.Addr, error) {
	return telemetry.Serve(addr, r, tr)
}

// Span tracing: the execution-span half of the observability layer. Note
// the naming — Trace is the *time-series* type (λ(t), w(t), r(t)), while
// Tracer/Span record *execution* spans in the Chrome trace-event sense;
// see repro/internal/telemetry/span for the full story.
type (
	// Tracer records execution spans; nil means tracing disabled and is
	// safe everywhere a *Tracer is accepted.
	Tracer = span.Tracer
	// Span is one timed, named, attributed interval.
	Span = span.Span
	// SpanAttr is a typed key/value attribute on a span.
	SpanAttr = span.Attr
	// SpanSummary is a tracer buffer overview (also served on /spans).
	SpanSummary = span.Summary
	// GeoMetrics instruments a geo federation run per site.
	GeoMetrics = telemetry.GeoMetrics
	// BatchMetrics instruments the batch-job scheduler.
	BatchMetrics = telemetry.BatchMetrics
)

// NewTracer returns an enabled span tracer; export it with
// WriteChromeTrace (Perfetto / chrome://tracing) or WriteNDJSON.
func NewTracer() *Tracer { return span.NewTracer() }

// Span attribute constructors.
func SpanStr(key, v string) SpanAttr           { return span.Str(key, v) }
func SpanInt(key string, v int) SpanAttr       { return span.Int(key, v) }
func SpanFloat(key string, v float64) SpanAttr { return span.Float(key, v) }
func SpanBool(key string, v bool) SpanAttr     { return span.Bool(key, v) }

// RunTraced is RunObserved with a span tracer attached to the engine:
// each slot records a sim.slot span with decide/operate/observe children,
// and tracer-aware layers (a GSDSolver with GSDOptions.Tracer set) nest
// their solve spans underneath.
func RunTraced(sc *Scenario, p Policy, tr *Tracer, observers ...Observer) (*RunResult, error) {
	return sim.RunTraced(sc, p, tr, observers...)
}

// Request-level engine (internal/reqsim): the event-driven M/G/1/PS
// simulator behind the paper's Eq. (4) delay model, and its slot-pipeline
// replay hooks. It recycles every slab across runs (zero steady-state
// allocations) and fans shards over a worker pool with results invariant
// to the worker count.
type (
	// ReqsimConfig configures one request-level simulation.
	ReqsimConfig = reqsim.Config
	// ReqsimResult summarizes a request-level run (journey counters plus
	// exact P50/P95/P99 response-time percentiles).
	ReqsimResult = reqsim.Result
	// ReqsimEngine is a reusable zero-steady-state-allocation simulator.
	ReqsimEngine = reqsim.Engine
	// ReqsimPool fans independent shards over workers and merges
	// deterministically in shard order.
	ReqsimPool = reqsim.Pool
	// ReqsimServiceSampler is a closure-free service distribution; build
	// with the reqsim constructors to add the heavy-tailed Pareto arm.
	ReqsimServiceSampler = reqsim.ServiceSampler
	// ReplayOptions configures a slot or fleet replayer.
	ReplayOptions = reqsim.ReplayOptions
	// ReplayReport aggregates empirical-vs-analytic delay error over a run.
	ReplayReport = reqsim.ReplayReport
	// SlotReplayer re-simulates each settled slot's (λ, x) at request
	// granularity from a sim.Observer hook.
	SlotReplayer = reqsim.SlotReplayer
	// FleetReplayer does the same per site from a geo settle hook.
	FleetReplayer = reqsim.FleetReplayer
)

// NewReqsimEngine returns a reusable request-level simulator.
func NewReqsimEngine() *ReqsimEngine { return reqsim.NewEngine() }

// NewReqsimPool returns a sharded runner over the given worker count.
func NewReqsimPool(workers int) *ReqsimPool { return reqsim.NewPool(workers) }

// SimulateRequests runs one request-level simulation on a fresh engine.
func SimulateRequests(cfg ReqsimConfig) (ReqsimResult, error) { return reqsim.Simulate(cfg) }

// ExponentialService returns an exponential requirement distribution.
func ExponentialService(mean float64) ReqsimServiceSampler { return reqsim.ExponentialService(mean) }

// DeterministicService returns a constant requirement.
func DeterministicService(mean float64) ReqsimServiceSampler {
	return reqsim.DeterministicService(mean)
}

// HyperexpService returns a high-variance two-phase requirement.
func HyperexpService(mean, p float64) ReqsimServiceSampler { return reqsim.HyperexpService(mean, p) }

// AnalyticMeanJobs is the M/G/1/PS prediction λ/(x−λ) behind Eq. (4).
func AnalyticMeanJobs(arrivalRPS, serviceRPS float64) float64 {
	return reqsim.AnalyticMeanJobs(arrivalRPS, serviceRPS)
}

// ParetoService returns a heavy-tailed Pareto requirement distribution
// (alpha > 1) for the arm where the analytic model's insensitivity
// argument converges only slowly.
func ParetoService(mean, alpha float64) ReqsimServiceSampler {
	return reqsim.ParetoService(mean, alpha)
}

// NewSlotReplayer wires request-level replay into a sim run: pass its
// Observer to RunObserved/RunTraced.
func NewSlotReplayer(server ServerType, opts ReplayOptions) *SlotReplayer {
	return reqsim.NewSlotReplayer(server, opts)
}

// NewFleetReplayer wires request-level replay into a geo.Fleet run: pass
// its Observer to Fleet.SetSettleObserver.
func NewFleetReplayer(siteNames []string, opts ReplayOptions) *FleetReplayer {
	return reqsim.NewFleetReplayer(siteNames, opts)
}

// Control plane (the cocad daemon's library surface): the controller as a
// long-running service over streaming observations, with versioned
// checkpoint/restore of every piece of cross-slot state.
type (
	// ControlService wraps a Controller in a slot loop with streaming
	// ingest, an FNV-1a state-hash chain and checkpoint/restore.
	ControlService = serve.Service
	// ControlSlotInput is one slot's observations on the wire.
	ControlSlotInput = serve.SlotInput
	// ControlDecision is the service's answer for one ingested slot.
	ControlDecision = serve.Decision
	// ControlState is the service's queryable running state.
	ControlState = serve.State
	// ControlMetrics instruments a ControlService.
	ControlMetrics = serve.Metrics
	// ServiceCheckpoint snapshots a ControlService (controller included).
	ServiceCheckpoint = serve.Checkpoint
	// ControllerCheckpoint snapshots a Controller: slot cursor, switching
	// anchor, deficit queue and the solver's opaque cross-slot state.
	ControllerCheckpoint = core.ControllerCheckpoint
	// PolicyCheckpoint snapshots the homogeneous COCA policy.
	PolicyCheckpoint = core.PolicyCheckpoint
	// EngineCheckpoint snapshots a sim Engine mid-run.
	EngineCheckpoint = sim.EngineCheckpoint
	// QueueCheckpoint snapshots a DeficitQueue.
	QueueCheckpoint = lyapunov.QueueCheckpoint
	// GSDSolverCheckpoint snapshots a GSDSolver's advancing seed and
	// warm-start vector.
	GSDSolverCheckpoint = gsd.SolverCheckpoint
	// SolverState is the opaque checkpoint interface a P3 solver may
	// implement to ride along in ControllerCheckpoints.
	SolverState = core.SolverState
)

// NewControlService wraps a controller in a slot-loop service. The
// controller must not be stepped by anyone else afterwards.
func NewControlService(ctrl *Controller) *ControlService { return serve.New(ctrl) }

// NewControlMetrics registers control-plane instruments under prefix;
// attach them with ControlService.Instrument.
func NewControlMetrics(r *TelemetryRegistry, prefix string) *ControlMetrics {
	return serve.NewMetrics(r, prefix)
}

// SyntheticSlots synthesizes a deterministic, position-addressable
// observation stream (cocad's -emit-slots mode).
func SyntheticSlots(seed uint64, start, count int, peakRPS, onsitePeakKW, offsiteMeanKWh float64) []ControlSlotInput {
	return serve.SyntheticSlots(seed, start, count, peakRPS, onsitePeakKW, offsiteMeanKWh)
}

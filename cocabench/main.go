// Command cocabench is the repository's benchmark. It drives three
// workloads through the entry points a COCA user calls and prints one JSON
// result line:
//
//	decide  serve.Service's /decide handler, in-process, one slot per call
//	fleet   geo.Fleet Step+Settle at 9984 groups × 256 sites
//	sweep   experiments.Fig2 at paper scale
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash cocabench/run.sh --workload decide --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a traced run adds spans around each layer's public calls, exports them as
// NDJSON under --trace-dir, and reports the per-layer metrics. LAYERS.md
// lists which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings every workload receives.
type options struct {
	seed     uint64
	duration time.Duration
	trace    bool
	traceDir string
	log      io.Writer
}

// outcome is what a workload measured: slot (or sweep point) counts, the
// output-check failures, and its metrics.
type outcome struct {
	attempted int
	failed    int
	checks    []string
	metrics   map[string]metric
}

func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(options) (*outcome, error){
	"decide": runDecide,
	"fleet":  runFleet,
	"sweep":  runSweep,
}

// endToEnd and perLayer are the metric names (and units) each mode
// reports; every workload reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"slot_p50_ms", "ms"},
	{"slot_p90_ms", "ms"},
	{"sweep_s", "s"},
	{"cost_usd_per_slot", "USD"},
	{"grid_kwh_per_slot", "kWh"},
	{"peak_heap_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"serve.self_ms", "ms"},
	{"gsd.solve_ms", "ms"},
	{"gsd.share", "share"},
	{"gsd.iterations_per_solve", "count"},
	{"gsd.accept_rate", "share"},
	{"gsd.cold_fallbacks", "count"},
	{"loadbalance.split_us.grid", "us"},
	{"loadbalance.split_us.surplus", "us"},
	{"loadbalance.split_us.kink", "us"},
	{"loadbalance.share.grid", "share"},
	{"loadbalance.share.surplus", "share"},
	{"loadbalance.share.kink", "share"},
	{"loadbalance.infeasible_share", "share"},
	{"geo.step_ms", "ms"},
	{"geo.settle_ms", "ms"},
	{"geo.self_ms", "ms"},
	{"geo.fan_efficiency", "share"},
	{"geo.shard_imbalance", "ratio"},
	{"sim.slot_us", "us"},
	{"sim.self_us", "us"},
	{"core.decide_us", "us"},
	{"workpool.fan_efficiency", "share"},
	{"allocs_per_slot", "count"},
	{"trace.overhead", "share"},
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cocabench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cocabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: decide, fleet or sweep")
		seed     = fs.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = fs.Float64("seconds", 10, "how long to measure")
		traced   = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		traceDir = fs.String("trace-dir", ".bench_build/traces", "where a traced run exports its spans")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want decide, fleet or sweep)", *name)
	}
	if *seconds <= 0 || math.IsNaN(*seconds) {
		return errors.New("--seconds must be positive")
	}
	if *traced != 0 && *traced != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	// The workloads are sized for two cores; more would make runs on
	// bigger hosts incomparable, and the fleet and sweep fan out to 2.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	opts := options{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *traced == 1,
		traceDir: *traceDir,
		log:      stderr,
	}
	out, err := wl(opts)
	if err != nil {
		return err
	}
	for _, c := range out.checks {
		fmt.Fprintln(stderr, "check failed:", c)
	}
	want := endToEnd
	if opts.trace {
		want = perLayer
	}
	res := result{
		Correct:   len(out.checks) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(want)),
	}
	for _, m := range want {
		v := out.metrics[m.name] // absent: the layer is not on this workload's path
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		res.Metrics[m.name] = metric{Value: v.Value, Unit: m.unit}
	}
	printSummary(stdout, *name, out)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// printSummary writes the human-readable lines before the result line.
func printSummary(w io.Writer, name string, out *outcome) {
	fmt.Fprintf(w, "workload %s: %d attempted, %d failed, %d check failures\n",
		name, out.attempted, out.failed, len(out.checks))
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

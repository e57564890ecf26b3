package coca_test

import (
	"fmt"

	coca "repro"
)

// ExampleNewCOCA runs COCA over a two-week calibrated scenario and checks
// carbon neutrality — the library's core loop in a dozen lines.
func ExampleNewCOCA() {
	sc, _, err := coca.BuildScenario(coca.ScenarioOptions{Slots: 14 * 24, N: 500, Seed: 2012})
	if err != nil {
		panic(err)
	}
	policy, err := coca.NewCOCA(coca.COCAFromScenario(sc, coca.ConstantV(1e3, 1, sc.Slots)))
	if err != nil {
		panic(err)
	}
	res, err := coca.Run(sc, policy)
	if err != nil {
		panic(err)
	}
	s := coca.Summarize(sc, res)
	fmt.Printf("carbon neutral: %v\n", s.BudgetUsedFraction <= 1)
	// Output:
	// carbon neutral: true
}

// ExampleSolveGSD solves one P3 instance with the paper's distributed
// Gibbs-sampling optimizer and verifies it matches exhaustive enumeration.
func ExampleSolveGSD() {
	cluster := &coca.Cluster{
		Groups: []coca.Group{
			{Type: coca.Opteron(), N: 4},
			{Type: coca.Opteron(), N: 4},
		},
		Gamma: 0.95, PUE: 1,
	}
	prob := &coca.SlotProblem{
		Cluster:   cluster,
		LambdaRPS: 30,
		We:        0.05, Wd: 0.01,
	}
	exact, err := coca.EnumerateP3(prob)
	if err != nil {
		panic(err)
	}
	res, err := coca.SolveGSD(prob, coca.GSDOptions{Delta: 1e6, MaxIters: 2000, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("GSD within 1%% of optimum: %v\n", res.Solution.Value <= exact.Value*1.01)
	// Output:
	// GSD within 1% of optimum: true
}

// ExampleSimulateRequests validates the paper's Eq. (4) delay model against
// the event-driven M/G/1/PS simulator at 50% utilization.
func ExampleSimulateRequests() {
	res, err := coca.SimulateRequests(coca.ReqsimConfig{
		ArrivalRPS: 5, ServiceRPS: 10,
		Service: coca.ExponentialService(1),
		Horizon: 50000, Warmup: 2000, Seed: 42,
	})
	if err != nil {
		panic(err)
	}
	analytic := coca.AnalyticMeanJobs(5, 10)
	fmt.Printf("analytic mean jobs: %.0f\n", analytic)
	fmt.Printf("simulated within 10%%: %v\n",
		res.MeanJobs > 0.9*analytic && res.MeanJobs < 1.1*analytic)
	// Output:
	// analytic mean jobs: 1
	// simulated within 10%: true
}

// ExampleDeficitQueue shows the Eq. (17) carbon-deficit queue update.
func ExampleDeficitQueue() {
	q := coca.NewDeficitQueue(1, 2) // α = 1, z = 2 kWh/slot
	fmt.Println(q.Update(10, 3))    // [0 + 10 − 3 − 2]^+
	fmt.Println(q.Update(0, 10))    // [5 + 0 − 10 − 2]^+
	// Output:
	// 5
	// 0
}

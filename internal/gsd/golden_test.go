package gsd

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/loadbalance"
)

// The hashes below pin the engine bit-for-bit: identical RNG draw
// sequence, identical float arithmetic in every solve, identical
// incumbent/best-ever evolution and history. Any last-ulp drift in the
// persistent-instance bookkeeping — a delta-updated sum, a reordered
// accumulation, a skipped solve that should have drawn randomness —
// changes a hash. They were re-captured when the load split moved from
// bisection to the bracketed Newton water-fill (the no-delay case, whose
// Wd = 0 path has no water-fill, kept its hash); every returned split is
// checked by loadbalance.Certify, so a hash pins a certified optimum, not
// merely an unchanged one.

// certified fails the test unless res's split passes the KKT certificate.
func certified(t *testing.T, p *dcmodel.SlotProblem, res Result) Result {
	t.Helper()
	if err := loadbalance.Certify(p, res.Solution.Speeds, res.Solution.Load); err != nil {
		t.Fatalf("GSD returned an uncertified split: %v", err)
	}
	return res
}

// hashRun digests a Result: Value, Iters, Accepted, Speeds, Load, History,
// all as little-endian IEEE-754 bits through FNV-1a (the BENCH_engine.json
// recipe).
func hashRun(res Result) string {
	h := fnv.New64a()
	put := func(vs ...float64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	put(res.Solution.Value, float64(res.Iters), float64(res.Accepted))
	for _, s := range res.Solution.Speeds {
		put(float64(s))
	}
	put(res.Solution.Load...)
	put(res.History...)
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

func hashSolutions(sols []dcmodel.Solution) string {
	h := fnv.New64a()
	put := func(vs ...float64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, s := range sols {
		put(s.Value)
		for _, sp := range s.Speeds {
			put(float64(sp))
		}
		put(s.Load...)
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// TestGoldenSolveHashes replays fixed seeded runs across the solver's
// regimes — the BenchmarkGSD500Iters200Groups workload at two seeds, a
// small kink-heavy problem, a heterogeneous cluster, and the Wd = 0
// fillNoDelay path — and requires the exact pre-optimization result bits.
func TestGoldenSolveHashes(t *testing.T) {
	paper := func(seed uint64) Result {
		cluster := dcmodel.PaperCluster(200)
		prob := &dcmodel.SlotProblem{
			Cluster: cluster, LambdaRPS: 0.3 * cluster.MaxCapacityRPS(),
			We: 0.05, Wd: 0.02,
		}
		res, err := Solve(prob, Options{Delta: 1e8, MaxIters: 500, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return certified(t, prob, res)
	}

	cases := []struct {
		name string
		want string
		run  func(t *testing.T) string
	}{
		{"paper-seed0", "fnv1a:d8e1347c731ea9e9", func(t *testing.T) string {
			return hashRun(paper(0))
		}},
		{"paper-seed7", "fnv1a:50d2c8ebc8877f23", func(t *testing.T) string {
			return hashRun(paper(7))
		}},
		{"kink", "fnv1a:61ebb0fcf3886d3c", func(t *testing.T) string {
			prob := smallProblem(6, 100)
			res, err := Solve(prob,
				Options{Delta: 1e4, MaxIters: 800, Seed: 42, RecordHistory: true})
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(certified(t, prob, res))
		}},
		{"hetero", "fnv1a:ff4b153891f9313f", func(t *testing.T) string {
			hc := dcmodel.HeterogeneousCluster(240, 12)
			prob := &dcmodel.SlotProblem{
				Cluster: hc, LambdaRPS: 0.35 * hc.MaxCapacityRPS(),
				We: 0.07, Wd: 0.02, OnsiteKW: 3,
			}
			res, err := Solve(prob,
				Options{Delta: 1e5, MaxIters: 600, Seed: 5, RecordHistory: true})
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(certified(t, prob, res))
		}},
		{"no-delay", "fnv1a:6d2425c0e4f31a48", func(t *testing.T) string {
			nc := dcmodel.HeterogeneousCluster(60, 6)
			prob := &dcmodel.SlotProblem{
				Cluster: nc, LambdaRPS: 0.3 * nc.MaxCapacityRPS(),
				We: 0.1, Wd: 0, OnsiteKW: 6,
			}
			res, err := Solve(prob,
				Options{Delta: 1e5, MaxIters: 600, Seed: 9, RecordHistory: true})
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(certified(t, prob, res))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Errorf("result hash = %s, want %s (RNG sequence or float arithmetic drifted)",
					got, tc.want)
			}
		})
	}
}

// TestGoldenSolverSequenceHash pins a warm-started Solver sequence — three
// slots with changing load, seed advancing per slot — so the seed-advance
// chain and warm-start handoff stay bit-for-bit too.
func TestGoldenSolverSequenceHash(t *testing.T) {
	const want = "fnv1a:52b431164c9613dd"
	s := &Solver{Opts: Options{Delta: 1e5, MaxIters: 400, Seed: 21}}
	var sols []dcmodel.Solution
	for _, lam := range []float64{40, 140, 80} {
		prob := smallProblem(3, lam)
		sol, err := s.Solve(prob)
		if err != nil {
			t.Fatal(err)
		}
		if err := loadbalance.Certify(prob, sol.Speeds, sol.Load); err != nil {
			t.Fatalf("λ = %v: uncertified split: %v", lam, err)
		}
		sols = append(sols, sol)
	}
	if got := hashSolutions(sols); got != want {
		t.Errorf("solver sequence hash = %s, want %s", got, want)
	}
}

package maxent

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"udi/internal/obs"
)

// The paper's §5.2 example: source (A,B), mediated (A',B'), correspondences
// p_{A,A'} = 0.6 and p_{B,B'} = 0.5. Outcomes: m1 = {AA', BB'},
// m2 = {AA'}, m3 = {BB'}, m4 = {}. The maxent solution is the independent
// product pM1: 0.3, 0.3, 0.2, 0.2.
func paperProblem() Problem {
	return Problem{
		NumOutcomes: 4,
		Features:    [][]int{{0, 1}, {0}, {1}, {}},
		Targets:     []float64{0.6, 0.5},
	}
}

func TestSolvePaperExample(t *testing.T) {
	probs, err := Solve(paperProblem(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.3, 0.3, 0.2, 0.2}
	for i, w := range want {
		if math.Abs(probs[i]-w) > 1e-8 {
			t.Errorf("p[%d] = %.10f, want %.10f", i, probs[i], w)
		}
	}
	// pM1 has higher entropy than the paper's alternative pM2
	// (0.5, 0.1, 0, 0.4).
	if h1, h2 := Entropy(probs), Entropy([]float64{0.5, 0.1, 0, 0.4}); h1 <= h2 {
		t.Errorf("maxent entropy %f not above alternative %f", h1, h2)
	}
}

func TestSolveConsistency(t *testing.T) {
	p := paperProblem()
	probs, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(p, probs); r > 1e-8 {
		t.Errorf("residual = %g", r)
	}
	sum := 0.0
	for _, v := range probs {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum = %f", sum)
	}
}

func TestSolveSingleConstraint(t *testing.T) {
	// Two outcomes, one constraint on the first: p0 = 0.7.
	p := Problem{NumOutcomes: 2, Features: [][]int{{0}, {}}, Targets: []float64{0.7}}
	probs, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(probs[0]-0.7) > 1e-9 || math.Abs(probs[1]-0.3) > 1e-9 {
		t.Errorf("probs = %v", probs)
	}
}

func TestSolveNoConstraints(t *testing.T) {
	p := Problem{NumOutcomes: 4, Features: [][]int{{}, {}, {}, {}}, Targets: nil}
	probs, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range probs {
		if math.Abs(v-0.25) > 1e-9 {
			t.Errorf("unconstrained solution not uniform: %v", probs)
		}
	}
}

func TestSolveZeroTarget(t *testing.T) {
	// Outcome 0 contains a zero-target constraint and must get probability 0.
	p := Problem{
		NumOutcomes: 3,
		Features:    [][]int{{0}, {1}, {}},
		Targets:     []float64{0, 0.5},
	}
	probs, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if probs[0] != 0 {
		t.Errorf("zero-target outcome got %f", probs[0])
	}
	if math.Abs(probs[1]-0.5) > 1e-9 {
		t.Errorf("probs = %v", probs)
	}
}

func TestSolveTargetOne(t *testing.T) {
	// Constraint must absorb all mass: outcomes without it get 0.
	p := Problem{
		NumOutcomes: 3,
		Features:    [][]int{{0}, {0}, {}},
		Targets:     []float64{1},
	}
	probs, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if probs[2] > 1e-9 {
		t.Errorf("outcome without saturated constraint got %f", probs[2])
	}
	if math.Abs(probs[0]-0.5) > 1e-6 || math.Abs(probs[1]-0.5) > 1e-6 {
		t.Errorf("probs = %v", probs)
	}
}

func TestSolveInfeasible(t *testing.T) {
	cases := []Problem{
		// Positive target with no supporting outcome.
		{NumOutcomes: 1, Features: [][]int{{}}, Targets: []float64{0.5}},
		// Constraint in every outcome but target < 1.
		{NumOutcomes: 2, Features: [][]int{{0}, {0}}, Targets: []float64{0.5}},
		// Mutually exclusive constraints demanding too much mass: outcome
		// sets are disjoint singletons with targets summing over 1.
		{NumOutcomes: 2, Features: [][]int{{0}, {1}}, Targets: []float64{0.8, 0.9}},
	}
	for i, p := range cases {
		if _, err := Solve(p, Options{MaxSweeps: 500}); err == nil {
			t.Errorf("case %d: infeasible problem solved", i)
		} else if !errors.Is(err, ErrInfeasible) {
			t.Errorf("case %d: error %v is not ErrInfeasible", i, err)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Problem{
		{NumOutcomes: 0},
		{NumOutcomes: 2, Features: [][]int{{}}},
		{NumOutcomes: 1, Features: [][]int{{5}}, Targets: []float64{0.5}},
		{NumOutcomes: 1, Features: [][]int{{0, 0}}, Targets: []float64{0.5}},
		{NumOutcomes: 1, Features: [][]int{{0}}, Targets: []float64{1.5}},
		{NumOutcomes: 1, Features: [][]int{{0}}, Targets: []float64{-0.1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid problem validated", i)
		}
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]float64{1, 0}); h != 0 {
		t.Errorf("deterministic entropy = %f", h)
	}
	if h := Entropy([]float64{0.5, 0.5}); math.Abs(h-math.Log(2)) > 1e-12 {
		t.Errorf("fair coin entropy = %f", h)
	}
}

// Property: on randomly generated bipartite-matching problems that are
// feasible by construction (targets taken from an actual distribution),
// Solve returns a consistent distribution with entropy at least that of
// the generating distribution.
func TestSolveRandomFeasible(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nOut := 2 + rng.Intn(8)
		nCon := 1 + rng.Intn(4)
		features := make([][]int, nOut)
		for k := range features {
			for c := 0; c < nCon; c++ {
				if rng.Float64() < 0.4 {
					features[k] = append(features[k], c)
				}
			}
		}
		// Generate a valid distribution, derive targets from it.
		gen := make([]float64, nOut)
		sum := 0.0
		for k := range gen {
			gen[k] = rng.Float64()
			sum += gen[k]
		}
		for k := range gen {
			gen[k] /= sum
		}
		targets := make([]float64, nCon)
		for k, fs := range features {
			for _, c := range fs {
				targets[c] += gen[k]
			}
		}
		p := Problem{NumOutcomes: nOut, Features: features, Targets: targets}
		probs, err := Solve(p, Options{})
		if err != nil {
			return false
		}
		if Residual(p, probs) > 1e-6 {
			return false
		}
		// Maxent solution must not have lower entropy than the generator
		// (tolerance covers fully-determined instances where the solver
		// converges to the generator itself within its own tolerance).
		return Entropy(probs) >= Entropy(gen)-1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolvePaperExample(b *testing.B) {
	p := paperProblem()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// A boundary optimum that the disjoint fast path cannot take (an outcome
// carries two constraints): target 1 on a constraint whose outcomes do not
// cover everything forces two outcomes to zero, exercising the IPF
// stall-detection path.
func TestSolveBoundaryMultiFeature(t *testing.T) {
	p := Problem{
		NumOutcomes: 4,
		Features:    [][]int{{0, 1}, {0}, {1}, {}},
		Targets:     []float64{1, 0.5},
	}
	probs, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Constraint 0 saturates: outcomes without it vanish; constraint 1
	// fixes the split between the two survivors.
	if probs[2] > 1e-6 || probs[3] > 1e-6 {
		t.Errorf("outcomes outside the saturated constraint kept mass: %v", probs)
	}
	if math.Abs(probs[0]-0.5) > 1e-6 || math.Abs(probs[1]-0.5) > 1e-6 {
		t.Errorf("probs = %v, want [0.5 0.5 0 0]", probs)
	}
	if r := Residual(p, probs); r > 1e-6 {
		t.Errorf("residual %g", r)
	}
}

// Solve must not mutate the caller's Targets slice even when clamping
// floating-point drift.
func TestSolveDoesNotMutateTargets(t *testing.T) {
	targets := []float64{1 + 1e-12, 0.5}
	p := Problem{
		NumOutcomes: 4,
		Features:    [][]int{{0, 1}, {0}, {1}, {}},
		Targets:     targets,
	}
	if _, err := Solve(p, Options{}); err != nil {
		t.Fatal(err)
	}
	if targets[0] != 1+1e-12 {
		t.Errorf("caller's targets mutated: %v", targets)
	}
}

// TestResolvedMetricsRecordAsByName: solving through handles resolved
// once records the same names and values as looking each metric up by
// name on every solve, over problems that take the closed form, IPF,
// the polish and every infeasibility exit.
func TestResolvedMetricsRecordAsByName(t *testing.T) {
	problems := []Problem{
		paperProblem(),
		{NumOutcomes: 2, Features: [][]int{{0}, {}}, Targets: []float64{0.7}},
		{NumOutcomes: 4, Features: [][]int{{0, 1}, {0}, {1}, {}}, Targets: []float64{1, 0.5}},
		{NumOutcomes: 1, Features: [][]int{{}}, Targets: []float64{0.5}},
		{NumOutcomes: 2, Features: [][]int{{0}, {0}}, Targets: []float64{0.5}},
		{NumOutcomes: 2, Features: [][]int{{0}, {1}}, Targets: []float64{0.8, 0.9}},
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		nOut, nCon := 2+rng.Intn(8), 1+rng.Intn(4)
		p := Problem{NumOutcomes: nOut, Features: make([][]int, nOut), Targets: make([]float64, nCon)}
		for k := range p.Features {
			for c := 0; c < nCon; c++ {
				if rng.Float64() < 0.4 {
					p.Features[k] = append(p.Features[k], c)
				}
			}
		}
		for c := range p.Targets {
			p.Targets[c] = rng.Float64()
		}
		problems = append(problems, p)
	}
	byName, resolved := obs.NewRegistry(), obs.NewRegistry()
	handles := NewMetrics(resolved)
	for _, p := range problems {
		_, err1 := Solve(p, Options{MaxSweeps: 500, Obs: byName})
		_, err2 := SolveWith(p, Options{MaxSweeps: 500}, handles)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%+v: by name %v, through handles %v", p, err1, err2)
		}
	}
	// The registry creates every handle on resolution; a metric never
	// recorded by name reads zero.
	a, b := byName.Snapshot(), resolved.Snapshot()
	for name, v := range b.Counters {
		if a.Counters[name] != v {
			t.Errorf("%s: %d through handles, %d by name", name, v, a.Counters[name])
		}
	}
	for name, h := range b.Histograms {
		if g := a.Histograms[name]; g.Count != h.Count || g.Sum != h.Sum {
			t.Errorf("%s: %d/%v through handles, %d/%v by name", name, h.Count, h.Sum, g.Count, g.Sum)
		}
	}
	for _, name := range []string{"maxent.fastpath", "maxent.infeasible", "maxent.polished"} {
		if b.Counters[name] == 0 {
			t.Errorf("%s never recorded: the problems miss a path", name)
		}
	}
	if b.Histograms["maxent.sweeps"].Sum == 0 {
		t.Error("no problem ran IPF sweeps")
	}
}

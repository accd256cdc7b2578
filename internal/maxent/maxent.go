// Package maxent solves the entropy-maximization program of the paper's
// §5.2 (OPT): given discrete outcomes (candidate schema mappings) and
// linear marginal constraints (each weighted correspondence (i,j) must
// receive total probability p_{i,j} over the mappings containing it), find
// the probability distribution with maximum entropy.
//
// It replaces the Knitro solver used by the authors. The optimum of OPT has
// Gibbs form p_k ∝ Π_{c∈m_k} μ_c, and iterative proportional fitting —
// cyclic exact I-projections onto each constraint's feasible set — converges
// to it (Csiszár 1975). Each constraint partitions outcomes into
// {contains c, does not}, so the exact projection step is a two-block
// rescale that preserves Σp = 1.
package maxent

import (
	"errors"
	"fmt"
	"math"

	"udi/internal/obs"
)

// Problem describes one OPT instance.
type Problem struct {
	// NumOutcomes is the number of candidate mappings l.
	NumOutcomes int
	// Features[k] lists the constraint indices whose correspondence is
	// contained in outcome k. Indices must be in [0, len(Targets)).
	Features [][]int
	// Targets[c] is the required total probability of constraint c
	// (the normalized weighted correspondence p'_{i,j}).
	Targets []float64
}

// Options tunes the solver.
type Options struct {
	// MaxSweeps bounds the number of full passes over the constraints.
	// Zero means the default (20000).
	MaxSweeps int
	// Tol is the convergence tolerance on max |E_c - t_c|. Zero means the
	// default (1e-9).
	Tol float64
	// Obs receives solver metrics: counters maxent.solves /
	// maxent.fastpath / maxent.infeasible / maxent.polished and histograms
	// maxent.outcomes / maxent.sweeps / maxent.residual. Nil disables
	// recording.
	Obs *obs.Registry
}

// Metrics is the solver's metric handles, resolved from a registry once
// so the solves of a batch record through atomics, with no name lookup
// under the registry's lock. A nil handle records nothing.
type Metrics struct {
	solves, fastpath, infeasible, polished *obs.Counter
	outcomes, sweeps, residual             *obs.Histogram
}

// NewMetrics resolves the solver's handles on r (nil or disabled: every
// handle nil).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		solves:     r.Counter("maxent.solves"),
		fastpath:   r.Counter("maxent.fastpath"),
		infeasible: r.Counter("maxent.infeasible"),
		polished:   r.Counter("maxent.polished"),
		outcomes:   r.Histogram("maxent.outcomes"),
		sweeps:     r.Histogram("maxent.sweeps"),
		residual:   r.Histogram("maxent.residual"),
	}
}

// ErrInfeasible is wrapped by Solve when no distribution can satisfy the
// constraints (e.g. a constraint's outcome set is empty but its target is
// positive, or targets conflict).
var ErrInfeasible = errors.New("maxent: constraints are infeasible")

// Validate checks structural sanity of the problem.
func (p *Problem) Validate() error {
	if p.NumOutcomes <= 0 {
		return fmt.Errorf("maxent: need at least one outcome")
	}
	if len(p.Features) != p.NumOutcomes {
		return fmt.Errorf("maxent: Features has %d rows, want %d", len(p.Features), p.NumOutcomes)
	}
	for k, fs := range p.Features {
		seen := make(map[int]bool, len(fs))
		for _, c := range fs {
			if c < 0 || c >= len(p.Targets) {
				return fmt.Errorf("maxent: outcome %d references constraint %d out of range", k, c)
			}
			if seen[c] {
				return fmt.Errorf("maxent: outcome %d repeats constraint %d", k, c)
			}
			seen[c] = true
		}
	}
	for c, t := range p.Targets {
		// Tolerate floating-point drift just past the bounds; Solve clamps.
		if t < -1e-9 || t > 1+1e-9 {
			return fmt.Errorf("maxent: target %d = %g out of [0,1]", c, t)
		}
	}
	return nil
}

// Solve returns the maximum-entropy distribution satisfying the problem's
// constraints, within opts.Tol. The returned slice has length NumOutcomes
// and sums to 1. It records on opts.Obs.
func Solve(p Problem, opts Options) ([]float64, error) {
	return SolveWith(p, opts, NewMetrics(opts.Obs))
}

// SolveWith is Solve recording through m (see NewMetrics) in place of
// opts.Obs: what a caller solving many problems uses.
func SolveWith(p Problem, opts Options, m *Metrics) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m.solves.Add(1)
	m.outcomes.Observe(float64(p.NumOutcomes))
	// Clamp targets that drifted past [0,1] by floating-point noise
	// (Validate already bounded the drift). Work on a copy: the caller's
	// slice must not be mutated.
	targets := make([]float64, len(p.Targets))
	copy(targets, p.Targets)
	for c, t := range targets {
		if t < 0 {
			targets[c] = 0
		} else if t > 1 {
			targets[c] = 1
		}
	}
	p.Targets = targets
	maxSweeps := opts.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = 20000
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-9
	}

	// members[c] lists the outcomes containing constraint c.
	members := make([][]int, len(p.Targets))
	for k, fs := range p.Features {
		for _, c := range fs {
			members[c] = append(members[c], k)
		}
	}
	for c, t := range p.Targets {
		if len(members[c]) == 0 && t > tol {
			m.infeasible.Add(1)
			return nil, fmt.Errorf("%w: constraint %d has target %g but no supporting outcome", ErrInfeasible, c, t)
		}
		if len(members[c]) == p.NumOutcomes && math.Abs(t-1) > tol && p.NumOutcomes > 0 {
			// Every outcome contains c, so its total is forced to 1.
			m.infeasible.Add(1)
			return nil, fmt.Errorf("%w: constraint %d appears in every outcome but target is %g", ErrInfeasible, c, t)
		}
	}

	// Fast path: when every outcome carries at most one constraint, the
	// constraints partition the outcomes and the maxent solution is closed
	// form — each constraint's target splits uniformly over its outcomes,
	// and the left-over mass splits uniformly over the free outcomes. This
	// covers the common "star" groups (one attribute matched against
	// several alternatives) exactly, including boundary optima that IPF
	// approaches only sublinearly.
	if probs, ok, err := solveDisjoint(p, members, tol); ok {
		m.fastpath.Add(1)
		if err != nil {
			m.infeasible.Add(1)
		} else {
			m.sweeps.Observe(0)
			if m.residual != nil {
				m.residual.Observe(residual(p, probs, members))
			}
		}
		return probs, err
	}

	// Start uniform; zero out outcomes containing a zero-target constraint
	// (their probability must be exactly 0 in any feasible solution).
	probs := make([]float64, p.NumOutcomes)
	alive := p.NumOutcomes
	zeroed := make([]bool, p.NumOutcomes)
	for c, t := range p.Targets {
		if t <= tol {
			for _, k := range members[c] {
				if !zeroed[k] {
					zeroed[k] = true
					alive--
				}
			}
		}
	}
	if alive == 0 {
		m.infeasible.Add(1)
		return nil, fmt.Errorf("%w: every outcome is excluded by a zero target", ErrInfeasible)
	}
	for k := range probs {
		if !zeroed[k] {
			probs[k] = 1 / float64(alive)
		}
	}

	// Boundary optima (some p_k → 0) slow IPF to a sublinear crawl: the
	// vanishing outcomes decay like c/sweep^α, so the residual never hits
	// tol within any reasonable budget. Geometric checkpoints detect the
	// stall — geometric convergence more than halves the residual between
	// checkpoints k and 2k, a sublinear tail does not — and hand off to
	// the projection polish below, which finishes the job additively.
	nextCheck := 256
	checkWorst := math.Inf(1)
	sweeps := 0
	for sweep := 0; sweep < maxSweeps; sweep++ {
		sweeps = sweep + 1
		worst := 0.0
		for c, t := range p.Targets {
			if t <= tol {
				continue // handled by zeroing
			}
			e := 0.0
			for _, k := range members[c] {
				e += probs[k]
			}
			if d := math.Abs(e - t); d > worst {
				worst = d
			}
			if e <= 0 {
				m.infeasible.Add(1)
				return nil, fmt.Errorf("%w: constraint %d lost all support during fitting", ErrInfeasible, c)
			}
			// Exact I-projection onto {Σ_{k∋c} p_k = t}: rescale the two
			// blocks. The complement block may be empty only when t = 1.
			comp := 1 - e
			if comp < 0 {
				comp = 0
			}
			inScale := t / e
			outScale := 0.0
			if comp > 0 {
				outScale = (1 - t) / comp
			} else if math.Abs(t-1) > tol {
				m.infeasible.Add(1)
				return nil, fmt.Errorf("%w: constraint %d saturates the distribution but target is %g", ErrInfeasible, c, t)
			}
			inSet := make(map[int]bool, len(members[c]))
			for _, k := range members[c] {
				inSet[k] = true
			}
			for k := range probs {
				if zeroed[k] {
					continue
				}
				if inSet[k] {
					probs[k] *= inScale
				} else {
					probs[k] *= outScale
				}
			}
		}
		if worst < tol {
			m.sweeps.Observe(float64(sweep + 1))
			m.residual.Observe(worst)
			return normalize(probs), nil
		}
		if sweep+1 == nextCheck {
			if worst < 1e-3 && worst > checkWorst/2 {
				break
			}
			checkWorst = worst
			nextCheck *= 2
		}
	}
	// IPF stalled on a boundary optimum (or exhausted its budget without
	// reaching tol). Finish with an additive projection: alternate between
	// the minimum-norm correction onto the affine set {constraint sums hit
	// their targets, total mass is 1} and clamping to the nonnegative
	// orthant. Unlike IPF's multiplicative updates — which can neither
	// reach an exact zero nor regrow one — the additive step moves any
	// outcome in either direction, so it converges to a feasible point
	// from warm starts that IPF alone approaches only sublinearly.
	if res := polish(p, probs, members, zeroed, tol); res < 1e-6 {
		m.polished.Add(1)
		m.sweeps.Observe(float64(sweeps))
		m.residual.Observe(res)
		return normalize(probs), nil
	}
	m.infeasible.Add(1)
	return nil, fmt.Errorf("%w: IPF did not converge (residual %g)", ErrInfeasible, residual(p, probs, members))
}

// polish projects probs onto the feasible polytope by alternating a
// minimum-norm correction onto the affine constraint set with clamping to
// p ≥ 0, and returns the final residual. The affine set has one row per
// positive-target constraint plus a total-mass row; outcomes excluded by a
// zero-target constraint stay at exactly 0. The Gram matrix of the rows is
// fixed across iterations, so it is factored once.
func polish(p Problem, probs []float64, members [][]int, zeroed []bool, tol float64) float64 {
	rows := make([]int, 0, len(p.Targets)) // constraints with positive targets
	for c, t := range p.Targets {
		if t > tol {
			rows = append(rows, c)
		}
	}
	m := len(rows) + 1 // +1 for the total-mass row
	n := p.NumOutcomes
	// B[i][k] = 1 when outcome k belongs to row i's constraint (zeroed
	// outcomes excluded: they carry no mass and receive no correction).
	B := make([][]float64, m)
	for i, c := range rows {
		B[i] = make([]float64, n)
		for _, k := range members[c] {
			if !zeroed[k] {
				B[i][k] = 1
			}
		}
	}
	B[m-1] = make([]float64, n)
	for k := 0; k < n; k++ {
		if !zeroed[k] {
			B[m-1][k] = 1
		}
	}
	// Gram matrix G = B·Bᵀ + εI, factored once. The tiny ridge keeps the
	// factorization alive when constraint rows are linearly dependent.
	G := make([][]float64, m)
	for i := range G {
		G[i] = make([]float64, m)
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += B[i][k] * B[j][k]
			}
			G[i][j] = s
			G[j][i] = s
		}
		G[i][i] += 1e-10
	}
	lu, perm := luFactor(G)
	if lu == nil {
		return residual(p, probs, members)
	}
	r := make([]float64, m)
	const maxIters = 500
	for iter := 0; iter < maxIters; iter++ {
		worst := 0.0
		for i, c := range rows {
			e := 0.0
			for _, k := range members[c] {
				e += probs[k]
			}
			r[i] = p.Targets[c] - e
			if d := math.Abs(r[i]); d > worst {
				worst = d
			}
		}
		total := 0.0
		for k, v := range probs {
			if !zeroed[k] {
				total += v
			}
		}
		r[m-1] = 1 - total
		if d := math.Abs(r[m-1]); d > worst {
			worst = d
		}
		if worst < 1e-12 {
			break
		}
		lam := luSolve(lu, perm, r)
		for k := 0; k < n; k++ {
			if zeroed[k] {
				continue
			}
			d := 0.0
			for i := 0; i < m; i++ {
				d += lam[i] * B[i][k]
			}
			probs[k] += d
			if probs[k] < 0 {
				probs[k] = 0
			}
		}
	}
	return residual(p, probs, members)
}

// luFactor computes an in-place LU factorization of A with partial
// pivoting. Returns nil when A is numerically singular.
func luFactor(A [][]float64) ([][]float64, []int) {
	m := len(A)
	lu := make([][]float64, m)
	for i := range lu {
		lu[i] = append([]float64(nil), A[i]...)
	}
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < m; col++ {
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(lu[r][col]) > math.Abs(lu[piv][col]) {
				piv = r
			}
		}
		if math.Abs(lu[piv][col]) < 1e-300 {
			return nil, nil
		}
		lu[col], lu[piv] = lu[piv], lu[col]
		perm[col], perm[piv] = perm[piv], perm[col]
		for r := col + 1; r < m; r++ {
			f := lu[r][col] / lu[col][col]
			lu[r][col] = f
			for c := col + 1; c < m; c++ {
				lu[r][c] -= f * lu[col][c]
			}
		}
	}
	return lu, perm
}

// luSolve solves A·x = b given the factorization from luFactor.
func luSolve(lu [][]float64, perm []int, b []float64) []float64 {
	m := len(lu)
	x := make([]float64, m)
	for i := 0; i < m; i++ {
		x[i] = b[perm[i]]
		for j := 0; j < i; j++ {
			x[i] -= lu[i][j] * x[j]
		}
	}
	for i := m - 1; i >= 0; i-- {
		for j := i + 1; j < m; j++ {
			x[i] -= lu[i][j] * x[j]
		}
		x[i] /= lu[i][i]
	}
	return x
}

// solveDisjoint handles problems where no outcome carries more than one
// constraint. Returns ok=false when the structure does not apply.
func solveDisjoint(p Problem, members [][]int, tol float64) ([]float64, bool, error) {
	for _, fs := range p.Features {
		if len(fs) > 1 {
			return nil, false, nil
		}
	}
	probs := make([]float64, p.NumOutcomes)
	used := 0.0
	constrained := make([]bool, p.NumOutcomes)
	for c, t := range p.Targets {
		for _, k := range members[c] {
			probs[k] = t / float64(len(members[c]))
			constrained[k] = true
		}
		used += t
	}
	free := 0
	for k := range probs {
		if !constrained[k] {
			free++
		}
	}
	rest := 1 - used
	switch {
	case rest < -1e-9:
		return nil, true, fmt.Errorf("%w: disjoint targets sum to %g > 1", ErrInfeasible, used)
	case free == 0 && rest > tol && rest > 1e-9:
		return nil, true, fmt.Errorf("%w: no free outcome to absorb residual mass %g", ErrInfeasible, rest)
	case rest < 0:
		rest = 0
	}
	if free > 0 {
		share := rest / float64(free)
		for k := range probs {
			if !constrained[k] {
				probs[k] = share
			}
		}
	}
	return normalize(probs), true, nil
}

func residual(p Problem, probs []float64, members [][]int) float64 {
	worst := 0.0
	for c, t := range p.Targets {
		e := 0.0
		for _, k := range members[c] {
			e += probs[k]
		}
		if d := math.Abs(e - t); d > worst {
			worst = d
		}
	}
	return worst
}

func normalize(probs []float64) []float64 {
	sum := 0.0
	for _, v := range probs {
		sum += v
	}
	if sum <= 0 {
		return probs
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs
}

// Entropy returns -Σ p log p (natural log), treating 0 log 0 as 0.
func Entropy(probs []float64) float64 {
	h := 0.0
	for _, v := range probs {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// Residual reports the worst constraint violation of a candidate
// distribution; used to verify Definition 5.1 consistency in tests.
func Residual(p Problem, probs []float64) float64 {
	members := make([][]int, len(p.Targets))
	for k, fs := range p.Features {
		for _, c := range fs {
			members[c] = append(members[c], k)
		}
	}
	return residual(p, probs, members)
}

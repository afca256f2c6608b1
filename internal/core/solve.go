// Solving: one production solve and two reference backends. The zero
// SolverKind (CNF, also named Portfolio) is the production path — one CNF
// session that finds a first schedule and sweeps the preemption bound down
// with the exact bounded check (cnfsolver.SolveMinimal). The paper's
// sequential (§4.2) and parallel (§4.3) solvers stay as explicit opt-ins:
// references for its tables and oracles for the differential tests. Every
// backend runs through runSolverStage, which contains an injected fault or
// a panic as a typed error and records the attempt for the trail and the
// trace.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/parsolve"
	"repro/internal/solver"
)

// solveStage runs the selected solver as one attempt, recording it in
// rep.Attempts and as a child span of sp, and the backend's statistics in
// rep and the registry.
func solveStage(rep *Reproduction, sys *constraints.System, opts ReproduceOptions, deadline time.Time, sp *obs.Span) (*solver.Solution, error) {
	reg := rep.Trace.Reg()
	var name string
	var run func() (*solver.Solution, int, error)
	switch opts.Solver {
	case CNF, Portfolio:
		cnfOpts := opts.CNFOptions
		wireCNF(&cnfOpts, opts.Ctx, deadline)
		wireProgress(reg, nil, nil, &cnfOpts)
		bound := opts.SeqOptions.MaxPreemptions
		if bound <= 0 {
			bound = -1 // no cap: sweep down from the first schedule
		}
		name, run = "cnf", func() (*solver.Solution, int, error) {
			s, stats, err := cnfsolver.SolveMinimal(sys, cnfOpts, bound)
			rep.CNFStats = stats
			emitCNFStats(reg, stats)
			return s, -1, err
		}
	case Sequential:
		seqOpts := opts.SeqOptions
		if seqOpts.MaxPreemptions == 0 {
			// Default to minimal-preemption mode; an exact zero bound is
			// available through the solver package directly.
			seqOpts.MaxPreemptions = -1
		}
		wireSeq(&seqOpts, opts.Ctx, deadline)
		wireProgress(reg, &seqOpts, nil, nil)
		name, run = "sequential", func() (*solver.Solution, int, error) {
			s, stats, err := solver.Solve(sys, seqOpts)
			rep.SeqStats = stats
			emitSeqStats(reg, stats)
			if stats == nil {
				return s, -1, err
			}
			return s, stats.BoundReached, err
		}
	case Parallel:
		parOpts := opts.ParOptions
		wirePar(&parOpts, opts.Ctx, deadline)
		wireProgress(reg, nil, &parOpts, nil)
		name, run = "parallel", func() (*solver.Solution, int, error) {
			res, err := parsolve.Solve(sys, parOpts)
			rep.Parallel = res
			emitParResult(reg, res)
			if err != nil {
				return nil, -1, err
			}
			if !res.Found() {
				return nil, res.Bound, parallelFailure(res)
			}
			return bestSolution(res), res.Bound, nil
		}
	default:
		return nil, fmt.Errorf("core: unknown solver kind %d", opts.Solver)
	}
	sol, att := runSolverStage(reg, name, sp, run)
	rep.Attempts = append(rep.Attempts, att)
	if sol == nil {
		return nil, attemptError("core", att)
	}
	return sol, nil
}

// bestSolution picks the fewest-preemption schedule of a parallel result.
func bestSolution(res *parsolve.Result) *solver.Solution {
	best := res.Solutions[0]
	for _, s := range res.Solutions[1:] {
		if s.Preemptions < best.Preemptions {
			best = s
		}
	}
	return best
}

func parallelFailure(res *parsolve.Result) error {
	if res.TimedOut || res.Cancelled {
		return &solver.Interrupted{Reason: "parallel search cut short", Bound: res.Bound}
	}
	return fmt.Errorf("parallel solver found no schedule (generated %d, capped=%v)",
		res.Generated, res.Capped)
}

// SolverAttempt records one solver stage's outcome in the attempt trail.
type SolverAttempt struct {
	// Solver names the stage: "cnf", "sequential", "parallel", or "cache"
	// for a schedule served from the artifact cache.
	Solver string
	// Elapsed is the stage's wall time.
	Elapsed time.Duration
	// Outcome is one of "solved", "interrupted", "fault injected",
	// "panicked", "no schedule", "too large" or "failed". "too large"
	// marks a CNF stage that refused to encode the system
	// (cnfsolver.TooLarge); its Err says which limit applied — in
	// particular whether an explicit EagerTransitivity request lowered it.
	Outcome string
	// Err holds the failure detail when the stage did not solve.
	Err string
	// BoundReached is the last preemption bound the stage explored
	// (-1 when the stage does not report one).
	BoundReached int
	// Preemptions is the solution's preemption count when solved, and
	// LowerBound its proven lower bound (solver.Solution.LowerBound).
	Preemptions int
	LowerBound  int

	// err retains the underlying error for callers inside the package.
	err error
}

// String renders the attempt for logs and CLI output.
func (a SolverAttempt) String() string {
	s := fmt.Sprintf("%s: %s in %v", a.Solver, a.Outcome, a.Elapsed.Round(time.Millisecond))
	if a.Outcome == "solved" {
		return s + ", " + PreemptionLabel(a.Preemptions, a.LowerBound)
	}
	if a.Err != "" {
		s += " (" + a.Err + ")"
	}
	return s
}

// SolverPanic reports a solver stage that panicked; runSolverStage
// recovers the panic into this error instead of crashing the pipeline.
type SolverPanic struct {
	Solver string
	Value  any
}

// Error implements error.
func (e *SolverPanic) Error() string {
	return fmt.Sprintf("%s solver panicked: %v", e.Solver, e.Value)
}

// PreemptionLabel renders a preemption count with its minimality claim:
// "preemptions=k (minimal: proven)" when the lower bound reaches k, else
// "(minimal: upper bound)".
func PreemptionLabel(preemptions, lowerBound int) string {
	return fmt.Sprintf("preemptions=%d (minimal: %s)", preemptions, solver.Minimality(preemptions, lowerBound))
}

// runSolverStage runs one stage with full containment: an injected fault
// skips the stage, a panic is recovered into a *SolverPanic, and an
// interrupt is classified apart from a genuine failure. The attempt is
// recorded as a "solve.<name>" child span of parent — panics and faults
// included, so a trace shows why the stage exited — and its wall time
// feeds the per-backend stage.solve.<name>.ns histogram.
func runSolverStage(reg *obs.Registry, name string, parent *obs.Span, fn func() (*solver.Solution, int, error)) (sol *solver.Solution, att SolverAttempt) {
	att = SolverAttempt{Solver: name, BoundReached: -1}
	sp := parent.Start("solve." + name)
	start := time.Now()
	defer func() {
		att.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			sol = nil
			att.Outcome = "panicked"
			att.Err = fmt.Sprint(p)
			att.err = &SolverPanic{Solver: name, Value: p}
		}
		sp.SetAttr("outcome", att.Outcome)
		if att.Err != "" {
			sp.SetAttr("err", att.Err)
		}
		if att.BoundReached >= 0 {
			sp.SetInt("bound", int64(att.BoundReached))
		}
		if att.Outcome == "solved" {
			sp.SetInt("preemptions", int64(att.Preemptions))
		}
		sp.End()
		reg.Hist("stage.solve." + name + ".ns").Observe(att.Elapsed.Nanoseconds())
	}()
	if err := faultinject.Fire("solver." + name); err != nil {
		att.Outcome = "fault injected"
		att.Err = err.Error()
		att.err = err
		return nil, att
	}
	s, bound, err := fn()
	att.BoundReached = bound
	if err != nil {
		var intr *solver.Interrupted
		var big *cnfsolver.TooLarge
		switch {
		case errors.As(err, &intr):
			att.Outcome = "interrupted"
		case errors.As(err, &big):
			att.Outcome = "too large"
		default:
			att.Outcome = "failed"
		}
		att.Err = err.Error()
		att.err = err
		return nil, att
	}
	if s == nil {
		att.Outcome = "no schedule"
		att.err = fmt.Errorf("%s solver returned no schedule", name)
		return nil, att
	}
	att.Outcome = "solved"
	att.Preemptions, att.LowerBound = s.Preemptions, s.LowerBound
	return s, att
}

// attemptError turns a failed attempt into the error a single-solver
// Reproduce call reports. Interrupts pass through typed so callers can
// distinguish "ran out of budget" from "proved unsatisfiable".
func attemptError(prefix string, att SolverAttempt) error {
	if att.err != nil {
		var intr *solver.Interrupted
		if errors.As(att.err, &intr) {
			return att.err
		}
		return fmt.Errorf("%s: %s solver: %w", prefix, att.Solver, att.err)
	}
	return fmt.Errorf("%s: %s solver %s", prefix, att.Solver, att.Outcome)
}

// wireSeq threads the pipeline context and remaining deadline into a
// sequential solver's options; an existing tighter bound wins.
func wireSeq(o *solver.Options, ctx context.Context, deadline time.Time) {
	if o.Ctx == nil {
		o.Ctx = ctx
	}
	capBudget(&o.Deadline, remaining(deadline))
}

func wirePar(o *parsolve.Options, ctx context.Context, deadline time.Time) {
	if o.Ctx == nil {
		o.Ctx = ctx
	}
	capBudget(&o.Deadline, remaining(deadline))
}

func wireCNF(o *cnfsolver.Options, ctx context.Context, deadline time.Time) {
	if o.Ctx == nil {
		o.Ctx = ctx
	}
	capBudget(&o.Deadline, remaining(deadline))
}

// remaining converts an absolute deadline to a duration budget; zero means
// "no bound", and an expired deadline becomes a nanosecond so the stage
// starts, notices, and reports an interrupt instead of silently running.
func remaining(deadline time.Time) time.Duration {
	if deadline.IsZero() {
		return 0
	}
	rem := time.Until(deadline)
	if rem <= 0 {
		return time.Nanosecond
	}
	return rem
}

// capBudget tightens *d to budget when budget is the earlier bound.
func capBudget(d *time.Duration, budget time.Duration) {
	if budget <= 0 {
		return
	}
	if *d == 0 || *d > budget {
		*d = budget
	}
}

// RunPortfolio runs the production solve directly on a constraint system
// (preprocess, then the CNF preemption sweep), honouring opts.Ctx and
// opts.Deadline. Portfolio is kept as a name for that path. It returns the
// solution together with the attempt trail.
func RunPortfolio(sys *constraints.System, opts ReproduceOptions) (*solver.Solution, []SolverAttempt, error) {
	deadline := absDeadline(opts.Ctx, opts.Deadline)
	rep := &Reproduction{Trace: opts.Obs}
	psp := opts.Obs.Root().Start("preprocess")
	emitPreStats(opts.Obs.Reg(), sys.PreprocessObs(psp))
	endStage(opts.Obs.Reg(), "preprocess", psp)
	sp := opts.Obs.Root().Start("solve")
	sp.SetAttr("kind", Portfolio.String())
	opts.Solver = Portfolio
	sol, err := solveStage(rep, sys, opts, deadline, sp)
	emitSolveSummary(opts.Obs.Reg(), rep.Attempts, sol)
	if err != nil {
		sp.SetAttr("err", err.Error())
	}
	endStage(opts.Obs.Reg(), "solve", sp)
	return sol, rep.Attempts, err
}

// absDeadline folds a relative budget and a context deadline into one
// absolute deadline, the earlier winning; zero means none.
func absDeadline(ctx context.Context, budget time.Duration) time.Time {
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
	}
	return deadline
}

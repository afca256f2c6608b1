package cnfsolver

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/constraints"
	"repro/internal/sat"
	"repro/internal/solver"
)

// Undecided reports a bounded solve that ended without an answer: the SAT
// search ran out of models, but some model's exact preemption check hit
// its state cap (or a coarse block may have excluded untested linear
// extensions), or the theory-round budget ran out first. Unlike *Unsat it
// proves nothing about the bound.
type Undecided struct {
	Bound  int
	Reason string
}

// Error implements error.
func (u *Undecided) Error() string {
	return fmt.Sprintf("cnfsolver: bound %d undecided: %s", u.Bound, u.Reason)
}

// boundedOrder orients the model's pair variables into the session's
// extension search and asks for a linear extension with at most bound
// preemptions. The returned order aliases the search's scratch.
func (sess *Session) boundedOrder(bound int) ([]constraints.SAPRef, constraints.ExtVerdict) {
	e := sess.e
	x := &sess.ext
	x.Reset(e.sys)
	for _, idx := range e.pairList {
		a, b := int(idx)/e.n, int(idx)%e.n
		if !e.s.Value(int(e.pairVar[idx])) {
			a, b = b, a
		}
		x.AddEdge(constraints.SAPRef(a), constraints.SAPRef(b))
	}
	order, _, v := x.Search(bound)
	return order, v
}

// blockOverBound forbids, under the shared bound group, the orientation
// of the core the refuting search used: model edges with no extension
// within the SolveBounded call's bound, so the clause excludes every model
// keeping them. An undecided check blocks the edges the others do not
// imply (no proof either way, which boundUndecided records). RetractBlocks
// retires the group, so a later higher-bound sweep sees the models again.
func (sess *Session) blockOverBound(v constraints.ExtVerdict, bound int) {
	e := sess.e
	if sess.boundGroup == nil {
		g := e.s.NewGroup()
		sess.boundGroup = &g
		sess.groups = append(sess.groups, g)
	}
	var keep []bool
	if v == constraints.ExtNone {
		keep = sess.ext.Core(bound)
		sess.st.BoundRefuted++
	} else {
		sess.boundUndecided = true
		sess.st.BoundUndecided++
		keep = sess.ext.Implied()
		for i := range keep {
			keep[i] = !keep[i]
		}
	}
	lits := e.lemmaBuf[:0]
	for i, idx := range e.pairList {
		if keep[i] {
			v := int(e.pairVar[idx])
			lits = append(lits, sat.MkLit(v, e.s.Value(v)))
		}
	}
	e.lemmaBuf = lits
	if v == constraints.ExtNone {
		sess.st.BoundCoreEdges += int64(len(lits))
	}
	sess.boundGroup.Add(lits...)
	e.clauses++
}

// SolveMinimal is the production solve: one session finds a first
// schedule, already the fewest-preemption extension of its model, then
// sweeps the bound down, asking SolveBounded(p-1) for a schedule with
// fewer than the best p found so far. A clean *Unsat at p-1 proves p
// minimal, and the returned Solution's LowerBound says so; any other end
// of the sweep (an undecided bound, the deadline, cancellation) returns
// the best schedule so far as an upper bound, without an error. A
// non-negative maxPreemptions caps the sweep: the first schedule must
// then have at most that many preemptions. Errors come only from the
// first schedule: the system is too large, unsatisfiable (within the cap)
// or the budget ran out before any schedule appeared. opts.Deadline
// bounds the whole sweep.
func SolveMinimal(sys *constraints.System, opts Options, maxPreemptions int) (*solver.Solution, *Stats, error) {
	sess, err := NewSession(sys, opts)
	if err != nil {
		return nil, nil, err
	}
	var end time.Time
	if opts.Deadline > 0 {
		end = time.Now().Add(opts.Deadline)
	}
	if maxPreemptions < 0 {
		maxPreemptions = len(sys.SAPs)
	}
	best, st, err := sess.SolveBounded(maxPreemptions)
	if err != nil {
		return nil, st, err
	}
	for best.Preemptions > 0 {
		if !end.IsZero() {
			rem := time.Until(end)
			if rem <= 0 {
				break
			}
			sess.opts.Deadline = rem
		}
		sol, _, err := sess.SolveBounded(best.Preemptions - 1)
		if err == nil {
			best = sol
			continue
		}
		var u *Unsat
		if errors.As(err, &u) {
			best.LowerBound = best.Preemptions
		}
		break
	}
	return best, st, nil
}

package cnfsolver_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/solver"
)

// dekkerSystem is the TSO Dekker benchmark's preprocessed system: its
// first CNF model needs more preemptions than the proven minimum, so the
// sweep has to descend.
func dekkerSystem(t *testing.T) *constraints.System {
	t.Helper()
	b, ok := bench.ByName("dekker")
	if !ok {
		t.Fatal("dekker benchmark missing")
	}
	p, err := bench.Prepare(b)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := bench.FreshSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSolveMinimalProvesMinimum: the sweep ends on a clean Unsat one
// below its answer, so the answer is labelled proven, and a bound below
// the minimum is refuted with *Unsat.
func TestSolveMinimalProvesMinimum(t *testing.T) {
	sys := dekkerSystem(t)
	sol, _, err := cnfsolver.SolveMinimal(sys, cnfsolver.Options{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Proven() {
		t.Fatalf("dekker: %d preemptions with lower bound %d, want a proven minimum", sol.Preemptions, sol.LowerBound)
	}
	if w, err := sys.ValidateSchedule(sol.Order); err != nil || w.Preemptions != sol.Preemptions {
		t.Fatalf("schedule does not validate with %d preemptions: %v", sol.Preemptions, err)
	}
	_, _, err = cnfsolver.SolveMinimal(sys, cnfsolver.Options{}, sol.Preemptions-1)
	var u *cnfsolver.Unsat
	if !errors.As(err, &u) {
		t.Fatalf("cap %d below the proven minimum: want *Unsat, got %v", sol.Preemptions-1, err)
	}
	capped, _, err := cnfsolver.SolveMinimal(sys, cnfsolver.Options{}, sol.Preemptions+1)
	if err != nil || capped.Preemptions != sol.Preemptions || !capped.Proven() {
		t.Fatalf("cap %d: got %+v, %v; want the proven %d", sol.Preemptions+1, capped, err, sol.Preemptions)
	}
}

// TestSolveMinimalAnytimeDeadline: cancelling once the first schedule is
// in hand ends the sweep with that schedule, labelled an upper bound, and
// no error; cancelling before it is an interrupt.
func TestSolveMinimalAnytimeDeadline(t *testing.T) {
	sys := dekkerSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := cnfsolver.Options{
		Ctx: ctx,
		// The second DPLL(T) entry is the first bounded call after the
		// first schedule.
		Progress: func(st cnfsolver.Stats) {
			if st.Solves >= 2 {
				cancel()
			}
		},
	}
	sol, _, err := cnfsolver.SolveMinimal(sys, opts, -1)
	if err != nil {
		t.Fatalf("a deadline after the first schedule must not be an error: %v", err)
	}
	if sol.Proven() {
		t.Fatalf("cut-short sweep labelled %d proven (lower bound %d)", sol.Preemptions, sol.LowerBound)
	}
	if _, err := sys.ValidateSchedule(sol.Order); err != nil {
		t.Fatalf("best-so-far schedule does not validate: %v", err)
	}

	_, _, err = cnfsolver.SolveMinimal(sys, cnfsolver.Options{Ctx: ctx}, -1)
	var intr *solver.Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("cancelled before the first schedule: want *solver.Interrupted, got %v", err)
	}
}

// TestSolveMinimalTooLarge: a system over the encoding limit fails with
// the typed error; there is no other solver to fall back to.
func TestSolveMinimalTooLarge(t *testing.T) {
	sys := dekkerSystem(t)
	_, _, err := cnfsolver.SolveMinimal(sys, cnfsolver.Options{MaxSAPs: 1}, -1)
	var big *cnfsolver.TooLarge
	if !errors.As(err, &big) {
		t.Fatalf("want *cnfsolver.TooLarge, got %v", err)
	}
}

package bench

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cnfsolver"
	"repro/internal/core"
	"repro/internal/parsolve"
	"repro/internal/solver"
)

// TestBackendsAgreeOnMinimality is the cross-backend differential test
// over all eleven benchmarks. Every backend's schedule must validate with
// the preemption count it reports, and none may have fewer preemptions
// than the lower bound any backend proved: a "proven" label backed by a
// false refutation fails here. The backends are the production sweep,
// the plain CNF first model, and the paper's sequential and parallel
// solvers, each reference run once under a fixed budget.
func TestBackendsAgreeOnMinimality(t *testing.T) {
	const refBudget = 2 * time.Second
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := preparedFor(t, b)
			type result struct {
				backend string
				sol     *solver.Solution
				lower   int
			}
			var results []result

			rep, err := core.Reproduce(p.Recording, core.ReproduceOptions{
				SeqOptions: solver.Options{MaxPreemptions: b.MaxPreemptions},
				SkipReplay: true,
			})
			if err != nil {
				t.Fatalf("production solve: %v", err)
			}
			results = append(results, result{"production", rep.Solution, rep.Solution.LowerBound})

			sys, err := FreshSystem(p)
			if err != nil {
				t.Fatal(err)
			}
			if sol, _, err := cnfsolver.Solve(sys, cnfsolver.Options{}); err == nil {
				results = append(results, result{"cnf-first-model", sol, sol.LowerBound})
			} else {
				t.Errorf("plain CNF solve: %v", err)
			}

			seq := b.MaxPreemptions
			if seq == 0 {
				seq = -1
			}
			sol, stats, err := solver.Solve(sys, solver.Options{MaxPreemptions: seq, Deadline: refBudget})
			var intr *solver.Interrupted
			switch {
			case err == nil:
				results = append(results, result{"sequential", sol, sol.LowerBound})
			case errors.As(err, &intr) && stats != nil:
				// Out of budget: its partial refutations still bind.
				results = append(results, result{"sequential", nil, stats.LowerBound})
			default:
				t.Errorf("sequential solve: %v", err)
			}

			par, err := parsolve.Solve(sys, parsolve.Options{MaxBound: b.ParallelBound, Deadline: refBudget})
			if err != nil {
				t.Errorf("parallel solve: %v", err)
			} else {
				for _, s := range par.Solutions {
					results = append(results, result{"parallel", s, 0})
				}
			}

			lower, by := 0, ""
			for _, r := range results {
				if r.lower > lower {
					lower, by = r.lower, r.backend
				}
			}
			for _, r := range results {
				if r.sol == nil {
					continue
				}
				w, err := sys.ValidateSchedule(r.sol.Order)
				if err != nil {
					t.Fatalf("%s schedule does not validate: %v", r.backend, err)
				}
				if w.Preemptions != r.sol.Preemptions {
					t.Fatalf("%s reports %d preemptions, its schedule has %d", r.backend, r.sol.Preemptions, w.Preemptions)
				}
				if r.sol.LowerBound > r.sol.Preemptions {
					t.Fatalf("%s claims lower bound %d above its own count %d", r.backend, r.sol.LowerBound, r.sol.Preemptions)
				}
				if r.sol.Preemptions < lower {
					t.Fatalf("%s found %d preemptions, below the lower bound %d proven by %s", r.backend, r.sol.Preemptions, lower, by)
				}
			}
			t.Logf("%s: production %s; lower bound %d (%s); %d schedules compared",
				b.Name, core.PreemptionLabel(rep.Solution.Preemptions, rep.Solution.LowerBound), lower, by, len(results))
		})
	}
}

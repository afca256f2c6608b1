// Deadline, cancellation and containment behaviour of the pipeline entry
// points: no phase may hang past its budget, interrupted runs must return
// partial diagnostics, and an injected solver fault or panic must end in a
// typed error.
package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/solver"
	"repro/internal/vm"
)

// quietSrc never fails its assertion: a bug hunt on it runs until its seed
// budget or deadline expires.
const quietSrc = `
int x;
mutex m;
func worker() {
	lock(m);
	x = x + 1;
	unlock(m);
}
func main() {
	int h1 = spawn worker();
	int h2 = spawn worker();
	join(h1);
	join(h2);
	assert(x >= 0, "never fires");
}
`

const lostUpdateSrc = `
int c;
func worker() {
	int t = c;
	c = t + 1;
}
func main() {
	int h1 = spawn worker();
	int h2 = spawn worker();
	join(h1);
	join(h2);
	int v = c;
	assert(v == 2, "lost update");
}
`

func recordLostUpdate(t *testing.T) *Recording {
	t.Helper()
	prog, err := Compile(lostUpdateSrc)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Record(prog, RecordOptions{Model: vm.SC, SeedLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecordNoFailureReportsLevels(t *testing.T) {
	prog, err := Compile(quietSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Record(prog, RecordOptions{Model: vm.SC, SeedLimit: 5})
	var nf *NoFailureError
	if !errors.As(err, &nf) {
		t.Fatalf("want *NoFailureError, got %v", err)
	}
	if nf.Interrupted {
		t.Fatal("an exhausted hunt is not an interrupted one")
	}
	if len(nf.Levels) != 4 {
		t.Fatalf("chaos ladder has 4 levels, reported %d", len(nf.Levels))
	}
	for _, l := range nf.Levels {
		if l.Seeds != 5 {
			t.Fatalf("level %d ran %d seeds, want 5: %v", l.Chaos, l.Seeds, err)
		}
	}
}

func TestRecordDeadlineInterrupts(t *testing.T) {
	prog, err := Compile(quietSrc)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Record(prog, RecordOptions{
		Model:     vm.SC,
		SeedLimit: 1 << 40, // would run ~forever without the deadline
		Deadline:  100 * time.Millisecond,
	})
	elapsed := time.Since(start)
	var nf *NoFailureError
	if !errors.As(err, &nf) || !nf.Interrupted {
		t.Fatalf("want an interrupted *NoFailureError, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: hunt ran %v", elapsed)
	}
	if len(nf.Levels) == 0 || nf.Levels[0].Seeds == 0 {
		t.Fatalf("interrupted hunt reported no progress: %v", err)
	}
}

func TestRecordCtxCancelInterrupts(t *testing.T) {
	prog, err := Compile(quietSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Record(prog, RecordOptions{Model: vm.SC, SeedLimit: 1 << 40, Ctx: ctx})
	var nf *NoFailureError
	if !errors.As(err, &nf) || !nf.Interrupted {
		t.Fatalf("want an interrupted *NoFailureError, got %v", err)
	}
}

func TestReproduceDeadlineExpired(t *testing.T) {
	rec := recordLostUpdate(t)
	for _, kind := range []SolverKind{CNF, Sequential, Parallel, Portfolio} {
		start := time.Now()
		rep, err := Reproduce(rec, ReproduceOptions{Solver: kind, Deadline: time.Nanosecond})
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("kind %d: expired deadline still ran %v", kind, elapsed)
		}
		if err == nil {
			t.Fatalf("kind %d: expired deadline produced no error", kind)
		}
		var intr *solver.Interrupted
		if !errors.As(err, &intr) {
			t.Fatalf("kind %d: want *solver.Interrupted in the chain, got %v", kind, err)
		}
		if rep == nil {
			t.Fatalf("kind %d: interrupted reproduce returned no partial diagnostics", kind)
		}
		if rep.System == nil || len(rep.Attempts) == 0 {
			t.Fatalf("kind %d: partial diagnostics incomplete: %+v", kind, rep)
		}
	}
}

func TestReproduceCtxCancelled(t *testing.T) {
	rec := recordLostUpdate(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Reproduce(rec, ReproduceOptions{Solver: Sequential, Ctx: ctx})
	if err == nil {
		t.Fatal("cancelled context produced no error")
	}
	var intr *solver.Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("want *solver.Interrupted, got %v", err)
	}
	if rep == nil || len(rep.Attempts) == 0 {
		t.Fatal("cancelled reproduce returned no attempt trail")
	}
}

func TestReproduceCNFKind(t *testing.T) {
	rec := recordLostUpdate(t)
	rep, err := Reproduce(rec, ReproduceOptions{Solver: CNF})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("CNF solver did not reproduce the lost update")
	}
	if rep.CNFStats == nil {
		t.Fatal("CNF stats missing")
	}
	if len(rep.Attempts) != 1 || rep.Attempts[0].Solver != "cnf" || rep.Attempts[0].Outcome != "solved" {
		t.Fatalf("attempt trail wrong: %+v", rep.Attempts)
	}
}

// TestPortfolioAllStagesFail: the production solve is the only stage, so
// an injected solver.cnf fault fails the reproduction with a typed error
// and a one-entry trail instead of falling back to another solver.
func TestPortfolioAllStagesFail(t *testing.T) {
	rec := recordLostUpdate(t)
	faultinject.Fail("solver.cnf")
	defer faultinject.Reset()
	rep, err := Reproduce(rec, ReproduceOptions{Solver: Portfolio})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want the injected fault in the error chain, got %v", err)
	}
	if rep == nil || len(rep.Attempts) != 1 {
		t.Fatalf("want a 1-entry attempt trail, got %+v", rep)
	}
	if a := rep.Attempts[0]; a.Solver != "cnf" || a.Outcome != "fault injected" {
		t.Fatalf("attempt %+v should be the fault-injected cnf stage", a)
	}
}

// TestSolverPanicIsTypedError: a panic inside the production stage is
// recovered into a *SolverPanic error and a "panicked" attempt.
func TestSolverPanicIsTypedError(t *testing.T) {
	rec := recordLostUpdate(t)
	faultinject.Enable("solver.cnf", faultinject.Failure{Panic: "injected solver panic"})
	defer faultinject.Reset()
	rep, err := Reproduce(rec, ReproduceOptions{})
	var p *SolverPanic
	if !errors.As(err, &p) || p.Solver != "cnf" {
		t.Fatalf("want a *SolverPanic from the cnf stage, got %v", err)
	}
	if rep == nil || len(rep.Attempts) != 1 || rep.Attempts[0].Outcome != "panicked" {
		t.Fatalf("panic not recorded in the trail: %+v", rep)
	}
}

func TestRunPortfolioDirect(t *testing.T) {
	rec := recordLostUpdate(t)
	sys, err := rec.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sol, attempts, err := RunPortfolio(sys, ReproduceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol == nil || len(attempts) == 0 {
		t.Fatalf("no solution or trail: %v %v", sol, attempts)
	}
	solved := false
	for _, a := range attempts {
		if a.Outcome == "solved" {
			solved = true
		}
	}
	if !solved {
		t.Fatalf("trail: %v", attempts)
	}
}

// spinSrc never fails and never finishes: both workers spin on a flag no
// one sets, so every seed runs until its action budget (50 M actions,
// tens of seconds) unless something stops the running seed.
const spinSrc = `
int flag;
func worker() {
	while (flag == 0) {
		yield();
	}
}
func main() {
	int h1 = spawn worker();
	int h2 = spawn worker();
	join(h1);
	join(h2);
	assert(flag == 0, "unreachable");
}
`

// TestRecordDeadlineStopsRunningSeed: the deadline reaches into a seed
// that is already running, so a hunt whose seeds spin returns an
// interrupted *NoFailureError promptly instead of after the action budget.
func TestRecordDeadlineStopsRunningSeed(t *testing.T) {
	prog, err := Compile(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Record(prog, RecordOptions{Model: vm.SC, SeedLimit: 100, Deadline: 200 * time.Millisecond})
	elapsed := time.Since(start)
	var nf *NoFailureError
	if !errors.As(err, &nf) || !nf.Interrupted {
		t.Fatalf("want an interrupted *NoFailureError, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline 200ms, hunt ran %v", elapsed)
	}
	for _, l := range nf.Levels {
		if l.Livelocked != 0 {
			t.Fatalf("an interrupted seed was counted as livelocked: %v", err)
		}
	}
}

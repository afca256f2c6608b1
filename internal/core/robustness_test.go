// Deadline, cancellation and portfolio behaviour of the pipeline entry
// points: no phase may hang past its budget, interrupted runs must return
// partial diagnostics, and injected solver failures must degrade to the
// next portfolio stage.
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
	for _, kind := range []SolverKind{Sequential, Parallel, CNF, Portfolio} {
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

// TestPortfolioRacesAllStages pins the concurrent portfolio's contract:
// every stage appears in the trail in fixed ladder order no matter which
// finished first, and at least one of them solved.
func TestPortfolioRacesAllStages(t *testing.T) {
	rec := recordLostUpdate(t)
	rep, err := Reproduce(rec, ReproduceOptions{Solver: Portfolio})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("portfolio did not reproduce")
	}
	want := []string{"sequential", "parallel", "cnf"}
	if len(rep.Attempts) != len(want) {
		t.Fatalf("racing portfolio should record all three stages: %+v", rep.Attempts)
	}
	solved := 0
	for i, a := range rep.Attempts {
		if a.Solver != want[i] {
			t.Fatalf("attempt %d: want stage %q in the trail, got %+v", i, want[i], rep.Attempts)
		}
		if a.Outcome == "solved" {
			solved++
		}
	}
	if solved == 0 {
		t.Fatalf("no stage solved: %+v", rep.Attempts)
	}
	if rep.SeqStats == nil {
		t.Fatal("sequential stats missing from the report")
	}
}

// TestPortfolioSerialPrefersSequential keeps the old ladder pinned: in
// serial mode a healthy portfolio stops at the sequential stage.
func TestPortfolioSerialPrefersSequential(t *testing.T) {
	rec := recordLostUpdate(t)
	rep, err := Reproduce(rec, ReproduceOptions{Solver: Portfolio, SerialPortfolio: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("serial portfolio did not reproduce")
	}
	if len(rep.Attempts) != 1 || rep.Attempts[0].Solver != "sequential" {
		t.Fatalf("healthy serial portfolio should stop at the sequential stage: %+v", rep.Attempts)
	}
	if rep.SeqStats == nil {
		t.Fatal("sequential stats missing from the report")
	}
}

func TestPortfolioFallsBackOnInjectedFailure(t *testing.T) {
	rec := recordLostUpdate(t)
	faultinject.Fail("solver.sequential")
	defer faultinject.Reset()
	rep, err := Reproduce(rec, ReproduceOptions{Solver: Portfolio})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("portfolio did not reproduce via fallback")
	}
	if len(rep.Attempts) < 2 || rep.Attempts[0].Outcome != "fault injected" {
		t.Fatalf("attempt trail: %+v", rep.Attempts)
	}
	if rep.Attempts[1].Solver != "parallel" {
		t.Fatalf("second stage should be parallel: %+v", rep.Attempts)
	}
}

func TestPortfolioAllStagesFail(t *testing.T) {
	rec := recordLostUpdate(t)
	faultinject.Fail("solver.sequential")
	faultinject.Fail("solver.parallel")
	faultinject.Fail("solver.cnf")
	defer faultinject.Reset()
	rep, err := Reproduce(rec, ReproduceOptions{Solver: Portfolio})
	if err == nil {
		t.Fatal("all stages injected to fail, yet the portfolio succeeded")
	}
	if rep == nil || len(rep.Attempts) != 3 {
		t.Fatalf("want a 3-entry attempt trail, got %+v", rep)
	}
	for _, a := range rep.Attempts {
		if a.Outcome != "fault injected" {
			t.Fatalf("attempt %+v should be fault injected", a)
		}
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

// Lazy-vs-eager equivalence and the clause-count gate over the paper's
// benchmark corpus. TestLazyEagerEquivalenceOnBenchmarks is the corpus
// half of the schedule-equivalence property (the randomized half lives in
// internal/cnfsolver): both encodings must agree on solvability for all
// eleven programs — symbolic addresses included, now that address-split
// refinement closed the lazy encoding's completeness gap — and on the
// exact mapping sets for the small ones, concrete and symbolic alike.
// TestBenchGateLazyCNF is the CI smoke gate: on the slowest benchmarks
// (including racey, formerly forced eager by its symbolic addresses) the
// lazy encoding must stay far below the eager cubic clause ceiling, so an
// accidental return to eager-by-default fails fast.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
)

// enumerateMappings collects distinct read→write mappings by repeated
// Solve + BlockMapping, validating each witness schedule. full is false
// when cap was reached before Unsat (the set is a prefix, not comparable).
func enumerateMappings(t *testing.T, sys *constraints.System, opts cnfsolver.Options, cap int) (keys []string, full bool) {
	t.Helper()
	sess, err := cnfsolver.NewSession(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	for len(keys) < cap {
		sol, _, err := sess.Solve()
		if err != nil {
			if _, isUnsat := err.(*cnfsolver.Unsat); isUnsat {
				sort.Strings(keys)
				return keys, true
			}
			t.Fatalf("solve: %v", err)
		}
		if _, err := sys.ValidateSchedule(sol.Order); err != nil {
			t.Fatalf("schedule does not validate: %v", err)
		}
		parts := make([]string, 0, len(sess.Mapping()))
		for _, w := range sess.Mapping() {
			parts = append(parts, fmt.Sprint(w))
		}
		keys = append(keys, strings.Join(parts, ","))
		sess.BlockMapping()
	}
	return keys, false
}

// smallEnumerable lists benchmarks cheap enough to enumerate their full
// mapping sets in both encodings (sub-second eager solves). bbuf and
// pfscan carry symbolic addresses, so their enumeration exercises
// address-split refinement against the eager closure on real programs —
// the corpus half of the equivalence property that retired the eager
// fallback. The rest get the solve-level check only.
var smallEnumerable = map[string]bool{
	"sim_race": true,
	"dekker":   true,
	"peterson": true,
	"bbuf":     true,
	"pfscan":   true,
}

func TestLazyEagerEquivalenceOnBenchmarks(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := preparedFor(t, b)
			// The solve-level check runs with pipeline-default budgets:
			// since address-split refinement, every benchmark — symbolic
			// addresses included — converges within them in both modes.
			opts := func(eager bool) cnfsolver.Options {
				return cnfsolver.Options{
					EagerTransitivity: eager,
					Deadline:          StageDeadline,
				}
			}

			sysL, err := FreshSystem(p)
			if err != nil {
				t.Fatal(err)
			}
			solL, stL, errL := cnfsolver.Solve(sysL, opts(false))
			sysE, err := FreshSystem(p)
			if err != nil {
				t.Fatal(err)
			}
			solE, _, errE := cnfsolver.Solve(sysE, opts(true))

			if (errL == nil) != (errE == nil) {
				t.Fatalf("solvability differs: lazy err=%v, eager err=%v", errL, errE)
			}
			if errL != nil {
				t.Logf("both encodings reject/abstain: lazy %v, eager %v", errL, errE)
				return
			}
			// Solve already validated; re-check against fresh systems to be
			// explicit that each order stands on its own.
			if _, err := sysL.ValidateSchedule(solL.Order); err != nil {
				t.Fatalf("lazy schedule does not re-validate: %v", err)
			}
			if _, err := sysE.ValidateSchedule(solE.Order); err != nil {
				t.Fatalf("eager schedule does not re-validate: %v", err)
			}
			t.Logf("lazy: %d clauses, %d lazy rounds, %d lemmas", stL.Clauses, stL.LazyRounds, stL.LazyLemmas)

			if !smallEnumerable[b.Name] {
				return
			}
			// Enumeration blocks one mapping class per feasible model plus
			// one theory round per value-rejected class, so it needs a
			// bigger round budget than a single solve.
			enumOpts := func(eager bool) cnfsolver.Options {
				o := opts(eager)
				o.MaxTheoryRounds = 20000
				return o
			}
			lazy, lazyFull := enumerateMappings(t, sysL, enumOpts(false), 1024)
			eager, eagerFull := enumerateMappings(t, sysE, enumOpts(true), 1024)
			if !lazyFull || !eagerFull {
				t.Fatalf("mapping enumeration capped (lazy full=%v eager full=%v); raise the cap or drop %s from smallEnumerable",
					lazyFull, eagerFull, b.Name)
			}
			if strings.Join(lazy, ";") != strings.Join(eager, ";") {
				t.Fatalf("mapping sets differ:\nlazy:  %v\neager: %v", lazy, eager)
			}
			t.Logf("mapping sets equal: %d classes", len(lazy))
		})
	}
}

// TestBenchGateLazyCNF is the bench-gate smoke check wired into CI: on
// the historically slowest benchmarks the CNF stage must stay lazy,
// i.e. its clause count must sit far below the eager encoding's cubic
// transitivity floor of n(n-1)(n-2) ordered-triple implications. racey
// is the symbolic-address representative: its array writes index by
// loop-carried values, so before address-split refinement it was forced
// onto the eager encoding — the gate now holds it to the lazy budget
// too, address-split lemmas included.
func TestBenchGateLazyCNF(t *testing.T) {
	for _, name := range []string{"swarm", "bakery", "dekker", "racey"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, ok := ByName(name)
			if !ok {
				t.Fatalf("benchmark %s missing", name)
			}
			p := preparedFor(t, b)
			sys, err := FreshSystem(p)
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := cnfsolver.Solve(sys, cnfsolver.Options{Deadline: StageDeadline})
			if err != nil {
				t.Fatalf("cnf stage failed: %v", err)
			}
			n := int64(len(sys.SAPs))
			ceiling := n * (n - 1) * (n - 2)
			if ceiling <= 0 {
				t.Fatalf("degenerate system: %d SAPs", n)
			}
			if st.Clauses >= ceiling/10 {
				t.Fatalf("cnf clauses = %d, want < eager ceiling %d / 10 — lazy transitivity regressed", st.Clauses, ceiling)
			}
			t.Logf("%s: n=%d, clauses=%d (eager ceiling %d)", name, n, st.Clauses, ceiling)
		})
	}
}

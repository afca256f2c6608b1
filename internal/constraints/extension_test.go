package constraints

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/vm"
)

// randomSyncSystem builds a small synthetic system: two or three threads
// of memory accesses, lock regions, signals, broadcasts and waits, with
// hard edges in the shape of the memory model (SC: program order; TSO:
// a write may pass to a later read; PSO: also to a later write of another
// variable). Only the fields the preemption rule reads are filled.
func randomSyncSystem(rng *rand.Rand, model vm.MemModel) *System {
	sys := &System{Model: model}
	add := func(t int, s *symexec.SAP) {
		s.Thread = trace.ThreadID(t)
		s.Seq = len(sys.Threads[t])
		sys.Threads[t] = append(sys.Threads[t], SAPRef(len(sys.SAPs)))
		sys.SAPs = append(sys.SAPs, s)
	}
	mem := func(t int) {
		k := symexec.SAPRead
		if rng.Intn(2) == 0 {
			k = symexec.SAPWrite
		}
		v := ir.GlobalID(rng.Intn(2))
		add(t, &symexec.SAP{Kind: k, Var: v, Addr: int(v)})
	}
	threads := 2 + rng.Intn(2)
	sys.Threads = make([][]SAPRef, threads)
	for t := 0; t < threads; t++ {
		for len(sys.Threads[t]) < 3+rng.Intn(3) {
			m := ir.SyncID(rng.Intn(2))
			c := ir.SyncID(rng.Intn(2))
			switch rng.Intn(6) {
			case 0, 1:
				mem(t)
			case 2:
				add(t, &symexec.SAP{Kind: symexec.SAPLock, Mutex: m})
				mem(t)
				add(t, &symexec.SAP{Kind: symexec.SAPUnlock, Mutex: m})
			case 3:
				add(t, &symexec.SAP{Kind: symexec.SAPSignal, Cond: c})
			case 4:
				add(t, &symexec.SAP{Kind: symexec.SAPBroadcast, Cond: c})
			case 5:
				add(t, &symexec.SAP{Kind: symexec.SAPLock, Mutex: m})
				add(t, &symexec.SAP{Kind: symexec.SAPWaitBegin, Mutex: m, Cond: c})
				add(t, &symexec.SAP{Kind: symexec.SAPWaitEnd, Mutex: m, Cond: c})
				add(t, &symexec.SAP{Kind: symexec.SAPUnlock, Mutex: m})
			}
		}
	}
	for _, refs := range sys.Threads {
		for i := range refs {
			for j := i + 1; j < len(refs); j++ {
				a, b := sys.SAPs[refs[i]], sys.SAPs[refs[j]]
				relaxed := a.Kind == symexec.SAPWrite && b.Kind.IsMemory() && a.Var != b.Var &&
					((model == vm.TSO && b.Kind == symexec.SAPRead) || model == vm.PSO)
				if model == vm.SC && j > i+1 {
					continue // program order is the chain of neighbours
				}
				if !relaxed {
					sys.HardEdges = append(sys.HardEdges, [2]SAPRef{refs[i], refs[j]})
				}
			}
		}
	}
	return sys
}

// randomDAG orients a random subset of cross-thread pairs along a random
// linear extension of the hard edges, so the DAG is acyclic but need not
// serialise lock regions or order waits after signals.
func randomDAG(rng *rand.Rand, sys *System, density float64) [][2]SAPRef {
	n := len(sys.SAPs)
	preds := sys.hardPredsTable()
	done := make([]bool, n)
	var perm []SAPRef
	for len(perm) < n {
		var ready []SAPRef
		for r := 0; r < n; r++ {
			if done[r] {
				continue
			}
			ok := true
			for _, p := range preds[r] {
				ok = ok && done[p]
			}
			if ok {
				ready = append(ready, SAPRef(r))
			}
		}
		r := ready[rng.Intn(len(ready))]
		done[r] = true
		perm = append(perm, r)
	}
	var edges [][2]SAPRef
	for i := range perm {
		for j := i + 1; j < len(perm); j++ {
			if sys.SAPs[perm[i]].Thread != sys.SAPs[perm[j]].Thread && rng.Float64() < density {
				edges = append(edges, [2]SAPRef{perm[i], perm[j]})
			}
		}
	}
	return edges
}

// bruteMin scores every linear extension of edges plus the hard edges
// with CountSwitches and returns the fewest preemptions (-1 when there
// are more than limit extensions).
func bruteMin(sys *System, edges [][2]SAPRef, limit int) int {
	n := len(sys.SAPs)
	preds := make([][]SAPRef, n)
	for _, e := range append(append([][2]SAPRef{}, sys.HardEdges...), edges...) {
		preds[e[1]] = append(preds[e[1]], e[0])
	}
	done := make([]bool, n)
	order := make([]SAPRef, 0, n)
	best, seen := n+1, 0
	var walk func()
	walk = func() {
		if seen > limit {
			return
		}
		if len(order) == n {
			seen++
			if _, p := sys.CountSwitches(order); p < best {
				best = p
			}
			return
		}
		for r := 0; r < n; r++ {
			if done[r] {
				continue
			}
			ok := true
			for _, p := range preds[r] {
				ok = ok && done[p]
			}
			if !ok {
				continue
			}
			done[r] = true
			order = append(order, SAPRef(r))
			walk()
			order = order[:len(order)-1]
			done[r] = false
		}
	}
	walk()
	if seen > limit {
		return -1
	}
	return best
}

// TestExtensionSearchMatchesBruteForce is the exact check's oracle: over
// random small systems under SC, TSO and PSO with locks and condition
// variables, and random DAGs over them, Search(k) finds an extension
// exactly when the brute-force minimum is at most k, and what it returns
// is a linear extension whose CountSwitches preemptions equal the
// reported count and, without a cap hit, the minimum.
func TestExtensionSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x ExtensionSearch
	checked, nonzero := 0, 0
	for _, model := range []vm.MemModel{vm.SC, vm.TSO, vm.PSO} {
		for i := 0; i < 80; i++ {
			sys := randomSyncSystem(rng, model)
			edges := randomDAG(rng, sys, rng.Float64()*0.3)
			want := bruteMin(sys, edges, 50_000)
			if want < 0 {
				continue
			}
			checked++
			if want > 0 {
				nonzero++
			}
			for k := 0; k <= want+1; k++ {
				x.Reset(sys)
				for _, e := range edges {
					x.AddEdge(e[0], e[1])
				}
				order, got, verdict := x.Search(k)
				switch {
				case verdict == ExtUndecided:
					t.Fatalf("%v case %d bound %d: undecided on a %d-SAP system", model, i, k, len(sys.SAPs))
				case k < want && verdict != ExtNone:
					t.Fatalf("%v case %d: bound %d answered %v (found %d), brute-force minimum %d", model, i, k, verdict, got, want)
				case k >= want && verdict != ExtFound:
					t.Fatalf("%v case %d: bound %d answered %v, brute-force minimum %d", model, i, k, verdict, want)
				case verdict == ExtFound:
					if got != want {
						t.Fatalf("%v case %d bound %d: found %d preemptions, minimum is %d", model, i, k, got, want)
					}
					if _, p := sys.CountSwitches(order); p != got {
						t.Fatalf("%v case %d: returned order counts %d preemptions, reported %d", model, i, p, got)
					}
					pos := make([]int, len(sys.SAPs))
					for at, r := range order {
						pos[r] = at
					}
					for _, e := range append(append([][2]SAPRef{}, sys.HardEdges...), edges...) {
						if pos[e[0]] >= pos[e[1]] {
							t.Fatalf("%v case %d: returned order breaks edge %v", model, i, e)
						}
					}
				}
			}
		}
	}
	if checked < 200 || nonzero < checked/4 {
		t.Fatalf("only %d cases small enough for brute force, %d needing a preemption", checked, nonzero)
	}
}

// TestExtensionSearchCyclicDAG: a DAG with a cycle has no linear
// extension, which is a proof of absence at every bound.
func TestExtensionSearchCyclicDAG(t *testing.T) {
	sys := randomSyncSystem(rand.New(rand.NewSource(2)), vm.SC)
	a, b := sys.Threads[0][0], sys.Threads[1][0]
	var x ExtensionSearch
	x.Reset(sys)
	x.AddEdge(a, b)
	x.AddEdge(b, a)
	if _, _, v := x.Search(len(sys.SAPs)); v != ExtNone {
		t.Fatalf("cyclic DAG answered %v", v)
	}
}

// TestExtensionSearchCoreRefutes is Core's oracle: over the random
// systems of TestExtensionSearchMatchesBruteForce and one fixed TSO
// system, whenever Search(k) answers ExtNone, the hard edges plus Core(k)
// still have no extension with at most k preemptions by brute force, and
// the exact check over them repeats the refuting search state for state.
// Some DAGs carry an added edge that duplicates a hard edge; Core never
// needs it, since the hard edge blocks the same candidates.
func TestExtensionSearchCoreRefutes(t *testing.T) {
	var x, y ExtensionSearch
	checked, shrunk, dups := 0, 0, 0
	check := func(name string, sys *System, edges [][2]SAPRef) {
		hard := map[[2]SAPRef]bool{}
		for _, e := range sys.HardEdges {
			hard[e] = true
		}
		for k := 0; k <= len(sys.SAPs); k++ {
			x.Reset(sys)
			for _, e := range edges {
				x.AddEdge(e[0], e[1])
			}
			if _, _, v := x.Search(k); v != ExtNone {
				return
			}
			states := x.states
			var core [][2]SAPRef
			for id, in := range x.Core(k) {
				if !in {
					continue
				}
				if hard[edges[id]] {
					t.Fatalf("%s bound %d: core keeps added edge %v, a duplicate of a hard edge", name, k, edges[id])
				}
				core = append(core, edges[id])
			}
			for _, e := range edges {
				if hard[e] {
					dups++
					break
				}
			}
			y.Reset(sys)
			for _, e := range core {
				y.AddEdge(e[0], e[1])
			}
			if _, _, v := y.Search(k); v != ExtNone || y.states != states {
				t.Fatalf("%s bound %d: core search answered %v in %d states, the refuting search ExtNone in %d", name, k, v, y.states, states)
			}
			if got := bruteMin(sys, core, 20_000); got >= 0 && got <= k {
				t.Fatalf("%s bound %d: the %d-edge core has an extension with %d preemptions", name, k, len(core), got)
			} else if got >= 0 {
				checked++
			}
			if len(core) < len(edges) {
				shrunk++
			}
		}
	}

	// Thread 0 is W x; W x; R y under TSO: the read may pass both writes,
	// so the search scans the second write while the first has not run,
	// a candidate blocked only by the hard edge, which the DAG duplicates.
	sys := &System{Model: vm.TSO, Threads: make([][]SAPRef, 2)}
	for _, s := range []*symexec.SAP{
		{Thread: 0, Kind: symexec.SAPWrite, Var: 0},
		{Thread: 0, Seq: 1, Kind: symexec.SAPWrite, Var: 0},
		{Thread: 0, Seq: 2, Kind: symexec.SAPRead, Var: 1, Addr: 1},
		{Thread: 1, Kind: symexec.SAPWrite, Var: 1, Addr: 1},
		{Thread: 1, Seq: 1, Kind: symexec.SAPRead, Var: 0},
	} {
		sys.Threads[s.Thread] = append(sys.Threads[s.Thread], SAPRef(len(sys.SAPs)))
		sys.SAPs = append(sys.SAPs, s)
	}
	sys.HardEdges = [][2]SAPRef{{0, 1}}
	check("fixed TSO", sys, [][2]SAPRef{{4, 0}, {2, 3}, {0, 1}})
	if checked != 1 || dups != 1 {
		t.Fatalf("fixed TSO system: %d refuted cores checked, want 1", checked)
	}

	rng := rand.New(rand.NewSource(3))
	for _, model := range []vm.MemModel{vm.SC, vm.TSO, vm.PSO} {
		for i := 0; i < 80; i++ {
			sys := randomSyncSystem(rng, model)
			edges := randomDAG(rng, sys, rng.Float64()*0.3)
			if rng.Intn(2) == 0 {
				edges = append(edges, sys.HardEdges[rng.Intn(len(sys.HardEdges))])
			}
			check(fmt.Sprintf("%v case %d", model, i), sys, edges)
		}
	}
	if checked < 80 || shrunk < checked/2 || dups < 20 {
		t.Fatalf("%d refuted cores checked by brute force, %d smaller than their DAG, %d DAGs with a duplicated hard edge", checked, shrunk, dups)
	}
}

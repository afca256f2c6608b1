package vm

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// actionsProg keeps three threads storing to several globals in
// descending address order, so PSO buffers hold out-of-order addresses
// and every thread has drains pending while others still run.
const actionsProg = `
int a;
int b;
int c;
int d;
func w() {
	int i = 0;
	while (i < 6) {
		d = i;
		c = i;
		b = i;
		a = i;
		i = i + 1;
	}
}
func main() {
	int t1 = spawn w();
	int t2 = spawn w();
	int t3 = spawn w();
	d = 9;
	b = 9;
	join(t1);
	join(t2);
	join(t3);
}
`

// referenceActions is the enabled-action list built the slow way: every
// candidate collected, then sorted by (kind, thread, address).
func referenceActions(v *VM) []Action {
	var acts []Action
	for _, t := range v.threads {
		if v.canRun(t) {
			acts = append(acts, Action{Kind: ActRun, Thread: t.ID})
		}
		if t.buf == nil {
			continue
		}
		seen := map[int]bool{}
		for i, e := range t.buf.entries {
			if t.buf.model == TSO && i > 0 {
				break
			}
			if !seen[e.addr] {
				seen[e.addr] = true
				acts = append(acts, Action{Kind: ActDrain, Thread: t.ID, Addr: e.addr})
			}
		}
	}
	sort.Slice(acts, func(i, j int) bool {
		if acts[i].Kind != acts[j].Kind {
			return acts[i].Kind < acts[j].Kind
		}
		if acts[i].Thread != acts[j].Thread {
			return acts[i].Thread < acts[j].Thread
		}
		return acts[i].Addr < acts[j].Addr
	})
	return acts
}

// TestEnabledActionsOrder pins the order EnabledActions produces without
// sorting: run actions before drains, threads ascending, and under PSO
// each thread's drain addresses ascending. Nothing else guards it, and
// RandomScheduler.Pick relies on it.
func TestEnabledActionsOrder(t *testing.T) {
	prog := compile(t, actionsProg)
	for _, model := range []MemModel{SC, TSO, PSO} {
		t.Run(model.String(), func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				var maxDrains, maxThreadDrains int
				sched := NewRandomScheduler(seed)
				sched.Chaos = 70
				check := FuncScheduler(func(v *VM, acts []Action) int {
					if want := referenceActions(v); !slices.Equal(acts, want) {
						t.Fatalf("seed %d: EnabledActions = %v, want %v", seed, acts, want)
					}
					drains, perThread := 0, map[ThreadID]int{}
					for i, a := range acts {
						if i > 0 && a.Kind == ActRun && acts[i-1].Kind == ActDrain {
							t.Fatalf("seed %d: run after drain in %v", seed, acts)
						}
						if a.Kind == ActDrain {
							drains++
							perThread[a.Thread]++
							maxThreadDrains = max(maxThreadDrains, perThread[a.Thread])
						}
					}
					maxDrains = max(maxDrains, drains)
					return sched.Pick(v, acts)
				})
				v, err := New(prog, Config{Model: model, Sched: check})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := v.Run(); err != nil {
					t.Fatal(err)
				}
				switch model {
				case SC:
					if maxDrains != 0 {
						t.Fatalf("seed %d: SC offered drains", seed)
					}
				case TSO:
					if maxThreadDrains > 1 {
						t.Fatalf("seed %d: TSO offered %d drains of one thread", seed, maxThreadDrains)
					}
				case PSO:
					if maxThreadDrains < 2 || maxDrains < 3 {
						t.Fatalf("seed %d: PSO never offered several drains (max %d, %d per thread); the test lost its bite", seed, maxDrains, maxThreadDrains)
					}
				}
			}
		})
	}
}

// TestEnabledActionsPickAllocFree steps a PSO run by hand and shows that,
// once the scratch buffer has grown, enumerating the actions and picking
// one allocates nothing at any step.
func TestEnabledActionsPickAllocFree(t *testing.T) {
	prog := compile(t, actionsProg)
	sched := NewRandomScheduler(3)
	v, err := New(prog, Config{Model: PSO, Sched: sched})
	if err != nil {
		t.Fatal(err)
	}
	for steps := 0; ; steps++ {
		if len(v.EnabledActions()) == 0 {
			if steps < 50 {
				t.Fatalf("run ended after %d steps", steps)
			}
			return
		}
		if allocs := testing.AllocsPerRun(5, func() { sched.Pick(v, v.EnabledActions()) }); allocs != 0 {
			t.Fatalf("step %d: EnabledActions+Pick allocate %.1f times", steps, allocs)
		}
		acts := v.EnabledActions()
		if err := v.perform(acts[sched.Pick(v, acts)]); err != nil {
			t.Fatal(err)
		}
	}
}

// oldPick is RandomScheduler.Pick as it was before it split the action
// list in place: it collects index slices first. The new Pick must make
// the same generator calls and return the same index.
func oldPick(s *RandomScheduler, actions []Action) int {
	var drains, runs []int
	for i, a := range actions {
		if a.Kind == ActDrain {
			drains = append(drains, i)
		} else {
			runs = append(runs, i)
		}
	}
	if len(drains) > 0 && (len(runs) == 0 || s.Rng.Intn(100) < s.DrainBias) {
		return drains[s.Rng.Intn(len(drains))]
	}
	if s.hasLast && s.Rng.Intn(100) >= s.Chaos {
		for _, i := range runs {
			if actions[i].Thread == s.last {
				return i
			}
		}
	}
	i := runs[s.Rng.Intn(len(runs))]
	s.last = actions[i].Thread
	s.hasLast = true
	return i
}

func TestRandomSchedulerPickMatchesIndexSlices(t *testing.T) {
	gen := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 50; seed++ {
		fast, slow := NewRandomScheduler(seed), NewRandomScheduler(seed)
		fast.Chaos, slow.Chaos = int(seed*7%100), int(seed*7%100)
		for step := 0; step < 200; step++ {
			var acts []Action
			for th := ThreadID(0); th < 4; th++ {
				if gen.Intn(3) > 0 {
					acts = append(acts, Action{Kind: ActRun, Thread: th})
				}
			}
			for th := ThreadID(0); th < 4; th++ {
				for addr := 0; addr < 3; addr++ {
					if gen.Intn(4) == 0 {
						acts = append(acts, Action{Kind: ActDrain, Thread: th, Addr: addr})
					}
				}
			}
			if len(acts) == 0 {
				continue
			}
			got, want := fast.Pick(nil, acts), oldPick(slow, acts)
			if got != want {
				t.Fatalf("seed %d step %d: Pick = %d, index-slice Pick = %d over %v", seed, step, got, want, acts)
			}
			if fast.Rng.Int63() != slow.Rng.Int63() {
				t.Fatalf("seed %d step %d: generators diverged", seed, step)
			}
		}
	}
}

func TestRandomSchedulerReset(t *testing.T) {
	s := NewRandomScheduler(5)
	s.Chaos, s.DrainBias = 90, 80
	acts := []Action{{Kind: ActRun, Thread: 0}, {Kind: ActRun, Thread: 1}, {Kind: ActDrain, Thread: 1, Addr: 2}}
	for range 10 {
		s.Pick(nil, acts)
	}
	s.Reset(7)
	fresh := NewRandomScheduler(7)
	if s.Chaos != fresh.Chaos || s.DrainBias != fresh.DrainBias || s.hasLast {
		t.Fatalf("Reset left state behind: %+v", s)
	}
	for i := range 100 {
		if a, b := s.Pick(nil, acts), fresh.Pick(nil, acts); a != b {
			t.Fatalf("pick %d: reset scheduler chose %d, fresh one %d", i, a, b)
		}
	}
}

// TestStopInterruptsRun: Config.Stop is polled before the first action
// and every stopPollInterval actions after, and ends a spinning run with
// ErrInterrupted long before its action budget.
func TestStopInterruptsRun(t *testing.T) {
	prog := compile(t, `
int flag;
func spin() { while (flag == 0) { yield(); } }
func main() {
	int h = spawn spin();
	join(h);
}
`)
	for _, after := range []int{0, 3} {
		polls := 0
		v, err := New(prog, Config{
			Sched:      &RoundRobinScheduler{},
			MaxActions: 1 << 30,
			Stop:       func() bool { polls++; return polls > after },
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = v.Run()
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("stop after %d polls: err = %v, want ErrInterrupted", after, err)
		}
		if want := after * stopPollInterval; v.actionCount != want {
			t.Fatalf("stop after %d polls: ran %d actions, want %d", after, v.actionCount, want)
		}
		if after > 0 && v.Instructions() == 0 {
			t.Fatal("Instructions() is zero after an interrupted run")
		}
	}
}

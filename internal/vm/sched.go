package vm

import "math/rand"

// Scheduler decides which enabled action runs next. Pick receives the
// deterministic action list produced by EnabledActions and returns the
// index of the chosen action.
type Scheduler interface {
	Pick(v *VM, actions []Action) int
}

// RandomScheduler drives the program through a seeded pseudo-random
// interleaving. It is how the record phase triggers bugs: different seeds
// explore different interleavings, playing the role of the paper's "insert
// timing delays at key places and run many times".
//
// Chaos biases toward switching: with Chaos 0 the scheduler keeps running
// the same thread while possible (few context switches); with Chaos 100 it
// picks uniformly at every visible event. DrainBias (0–100, TSO/PSO only)
// is the probability of preferring a drain action when one exists, letting
// stores linger in buffers long enough for relaxed-memory bugs to appear.
type RandomScheduler struct {
	Rng       *rand.Rand
	Chaos     int
	DrainBias int
	last      ThreadID
	hasLast   bool
}

// Default RandomScheduler tuning: moderate switching.
const (
	defaultChaos     = 40
	defaultDrainBias = 30
)

// NewRandomScheduler returns a seeded random scheduler with moderate
// switching.
func NewRandomScheduler(seed int64) *RandomScheduler {
	return &RandomScheduler{Rng: rand.New(rand.NewSource(seed)), Chaos: defaultChaos, DrainBias: defaultDrainBias}
}

// Reset makes s pick exactly as NewRandomScheduler(seed) would, Chaos and
// DrainBias included, but re-seeds s's generator instead of allocating a
// new one. A bug hunt resets one scheduler per worker for every seed.
func (s *RandomScheduler) Reset(seed int64) {
	s.Rng.Seed(seed)
	*s = RandomScheduler{Rng: s.Rng, Chaos: defaultChaos, DrainBias: defaultDrainBias}
}

// Pick implements Scheduler. It relies on EnabledActions' order (run
// actions before drains) to split the list without allocating.
func (s *RandomScheduler) Pick(v *VM, actions []Action) int {
	k := 0
	for k < len(actions) && actions[k].Kind != ActDrain {
		k++
	}
	runs, drains := actions[:k], actions[k:]
	// Optionally prefer a drain action so buffered stores stay pending
	// across other threads' operations.
	if len(drains) > 0 && (len(runs) == 0 || s.Rng.Intn(100) < s.DrainBias) {
		return k + s.Rng.Intn(len(drains))
	}
	// Stickiness: continue the last thread unless chaos strikes.
	if s.hasLast && s.Rng.Intn(100) >= s.Chaos {
		for i, a := range runs {
			if a.Thread == s.last {
				return i
			}
		}
	}
	i := s.Rng.Intn(len(runs))
	s.last = runs[i].Thread
	s.hasLast = true
	return i
}

// RoundRobinScheduler rotates through runnable threads, draining buffers
// eagerly. It gives a deterministic, SC-looking baseline execution.
type RoundRobinScheduler struct {
	next ThreadID
}

// Pick implements Scheduler.
func (s *RoundRobinScheduler) Pick(v *VM, actions []Action) int {
	// Drain first so memory stays up to date.
	for i, a := range actions {
		if a.Kind == ActDrain {
			return i
		}
	}
	// First run action with thread >= next, wrapping.
	best := -1
	for i, a := range actions {
		if a.Thread >= s.next {
			best = i
			break
		}
	}
	if best == -1 {
		best = 0
	}
	s.next = actions[best].Thread + 1
	return best
}

// FixedScheduler replays a precomputed sequence of action choices; it is
// used by tests that need full control.
type FixedScheduler struct {
	// Choices are indices into the action list at each step. When the
	// sequence runs out, Pick returns 0.
	Choices []int
	pos     int
}

// Pick implements Scheduler.
func (s *FixedScheduler) Pick(v *VM, actions []Action) int {
	if s.pos >= len(s.Choices) {
		return 0
	}
	c := s.Choices[s.pos]
	s.pos++
	if c >= len(actions) {
		return len(actions) - 1
	}
	return c
}

// FuncScheduler adapts a function to the Scheduler interface.
type FuncScheduler func(v *VM, actions []Action) int

// Pick implements Scheduler.
func (f FuncScheduler) Pick(v *VM, actions []Action) int { return f(v, actions) }

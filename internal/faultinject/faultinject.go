// Package faultinject is the repository's fault-injection harness: a
// deterministic, seed-driven corrupter for on-disk logs and a registry of
// injectable failure hooks for pipeline stages.
//
// C11Tester-style robustness validation needs adversarial conditions to be
// systematic, not ad hoc: every corruption is a pure function of a seed (or
// explicit parameters), so a failing robustness test names the exact
// mutation that broke the pipeline and replays it forever. The failure
// hooks let tests force a solver stage (or any other registered point) to
// fail or panic without reaching into its internals, proving that the
// pipeline's containment paths actually run.
//
// Production code pays one mutex-guarded map lookup per registered fire
// point; with nothing armed, Fire returns nil immediately.
//
// Beyond returned errors and panics, a point may be armed to *crash*: the
// process terminates immediately via os.Exit (no deferred functions, no
// cleanup), which is a deterministic kill -9 at a named program point.
// Crash points are how the clapd chaos tests prove durability: arm a
// crash anywhere in the journal/store/worker paths, restart, and verify
// no accepted job was lost or double-completed. ArmEnv lets a subprocess
// arm points from an environment variable, so the crash happens in a
// child process while the test survives to inspect the wreckage.
package faultinject

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
)

// ---------------------------------------------------------------------------
// Failure hooks.

// Failure describes what an armed fire point does.
type Failure struct {
	// Err is returned by Fire (a structured stage failure).
	Err error
	// Panic, when non-empty, makes Fire panic with this value instead —
	// used to prove stages recover panics into structured errors.
	Panic string
	// Crash makes Fire terminate the process immediately (os.Exit(137),
	// the kill -9 exit status): no deferred functions run, simulating a
	// hard kill at exactly this point. Tests that must survive the crash
	// arm it in a subprocess via ArmEnv.
	Crash bool
	// After skips the first After calls before firing (0 = fire at once).
	After int
	// Times bounds how often the point fires (0 = every call once armed).
	Times int
}

// ErrInjected is the default error of an armed point with no explicit Err.
var ErrInjected = fmt.Errorf("faultinject: injected failure")

type armed struct {
	f     Failure
	calls int
	fired int
}

var (
	mu     sync.Mutex
	points = map[string]*armed{}
)

// Enable arms a fire point.
func Enable(point string, f Failure) {
	mu.Lock()
	defer mu.Unlock()
	points[point] = &armed{f: f}
}

// Fail arms a point with the default injected error.
func Fail(point string) { Enable(point, Failure{}) }

// Disable disarms one point.
func Disable(point string) {
	mu.Lock()
	defer mu.Unlock()
	delete(points, point)
}

// Reset disarms every point. Tests should defer this.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]*armed{}
}

// Fire consults the registry at a named point: it returns the armed error
// (or panics, if the armed failure says so) when the point is due, and nil
// otherwise. Call counting is per arming, so After/Times schedules are
// deterministic.
func Fire(point string) error {
	mu.Lock()
	a, ok := points[point]
	if !ok {
		mu.Unlock()
		return nil
	}
	a.calls++
	due := a.calls > a.f.After && (a.f.Times == 0 || a.fired < a.f.Times)
	if due {
		a.fired++
	}
	f := a.f
	crash := crashFn
	mu.Unlock()
	if !due {
		return nil
	}
	if f.Crash {
		crash(point)
	}
	if f.Panic != "" {
		panic(f.Panic)
	}
	if f.Err != nil {
		return f.Err
	}
	return fmt.Errorf("%w at %s", ErrInjected, point)
}

// CrashExitCode is the status a crash point exits with — the shell's
// status for a SIGKILLed process, so scripts treat an injected crash and
// a real kill -9 identically.
const CrashExitCode = 137

// crashFn terminates the process at a crash point. Overridable so
// in-process tests can observe a would-be crash instead of dying.
var crashFn = func(point string) {
	fmt.Fprintf(os.Stderr, "faultinject: crash at %s\n", point)
	os.Exit(CrashExitCode)
}

// SetCrashFn replaces the crash behavior and returns a restore function.
// Test-only: lets a single-process test assert a crash point fired
// without losing the process.
func SetCrashFn(fn func(point string)) (restore func()) {
	mu.Lock()
	old := crashFn
	crashFn = fn
	mu.Unlock()
	return func() {
		mu.Lock()
		crashFn = old
		mu.Unlock()
	}
}

// ArmEnv arms fire points from a specification string, typically an
// environment variable set by a test driving a subprocess:
//
//	point=mode[@after[:times]][,point=mode...]
//
// mode is "fail" (return ErrInjected), "panic" (panic with the point
// name), or "crash" (os.Exit(137) — a deterministic kill -9). after
// skips that many calls before firing; times bounds how often it fires
// (crash points need no bound). An empty spec arms nothing.
//
//	CLAP_FAULTS="clapd.worker.result=crash@0" clap serve ...
func ArmEnv(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		point, rhs, ok := strings.Cut(part, "=")
		if !ok || point == "" {
			return fmt.Errorf("faultinject: bad fault spec %q (want point=mode[@after[:times]])", part)
		}
		mode := rhs
		var after, times int
		if m, sched, ok := strings.Cut(rhs, "@"); ok {
			mode = m
			a, t, hasTimes := strings.Cut(sched, ":")
			n, err := strconv.Atoi(a)
			if err != nil || n < 0 {
				return fmt.Errorf("faultinject: bad after count in %q", part)
			}
			after = n
			if hasTimes {
				n, err := strconv.Atoi(t)
				if err != nil || n < 0 {
					return fmt.Errorf("faultinject: bad times count in %q", part)
				}
				times = n
			}
		}
		f := Failure{After: after, Times: times}
		switch mode {
		case "fail":
			// Err nil: Fire returns ErrInjected wrapped with the point name.
		case "panic":
			f.Panic = "faultinject: injected panic at " + point
		case "crash":
			f.Crash = true
		default:
			return fmt.Errorf("faultinject: unknown fault mode %q in %q", mode, part)
		}
		Enable(point, f)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Deterministic corrupter.

// Corrupter produces seed-driven mutations of encoded logs. All methods are
// pure in the seed sequence: the same seed yields the same mutations, so
// robustness failures are replayable by construction. Inputs are never
// modified; every mutation returns a fresh slice.
type Corrupter struct {
	rng *rand.Rand
}

// NewCorrupter builds a corrupter for the given seed.
func NewCorrupter(seed int64) *Corrupter {
	return &Corrupter{rng: rand.New(rand.NewSource(seed))}
}

// Truncate keeps the first n bytes (a crash-interrupted write).
func Truncate(buf []byte, n int) []byte {
	if n < 0 {
		n = 0
	}
	if n > len(buf) {
		n = len(buf)
	}
	return append([]byte{}, buf[:n]...)
}

// FlipBit flips bit k of the buffer (a silent storage corruption).
func FlipBit(buf []byte, k int) []byte {
	out := append([]byte{}, buf...)
	if len(out) == 0 {
		return out
	}
	k %= len(out) * 8
	if k < 0 {
		k += len(out) * 8
	}
	out[k/8] ^= 1 << (k % 8)
	return out
}

// DropRange removes buf[off:off+n] (a lost frame or segment).
func DropRange(buf []byte, off, n int) []byte {
	if off < 0 {
		off = 0
	}
	if off > len(buf) {
		off = len(buf)
	}
	if n < 0 {
		n = 0
	}
	if off+n > len(buf) {
		n = len(buf) - off
	}
	out := append([]byte{}, buf[:off]...)
	return append(out, buf[off+n:]...)
}

// Mutation is one applied corruption, for failure reports.
type Mutation struct {
	// Op is "truncate", "flipbit" or "droprange".
	Op string
	// Off and N parameterize the op: truncate keeps Off bytes; flipbit
	// flips bit Off; droprange removes N bytes at Off.
	Off, N int
}

// String renders the mutation for test-failure messages.
func (m Mutation) String() string {
	switch m.Op {
	case "truncate":
		return fmt.Sprintf("truncate to %dB", m.Off)
	case "flipbit":
		return fmt.Sprintf("flip bit %d", m.Off)
	default:
		return fmt.Sprintf("drop %dB at %d", m.N, m.Off)
	}
}

// Apply replays a mutation.
func (m Mutation) Apply(buf []byte) []byte {
	switch m.Op {
	case "truncate":
		return Truncate(buf, m.Off)
	case "flipbit":
		return FlipBit(buf, m.Off)
	default:
		return DropRange(buf, m.Off, m.N)
	}
}

// Mutate draws one random mutation for the buffer and applies it, returning
// the mutated copy and the mutation for replay/reporting.
func (c *Corrupter) Mutate(buf []byte) ([]byte, Mutation) {
	var m Mutation
	if len(buf) == 0 {
		m = Mutation{Op: "truncate", Off: 0}
		return m.Apply(buf), m
	}
	switch c.rng.Intn(3) {
	case 0:
		m = Mutation{Op: "truncate", Off: c.rng.Intn(len(buf))}
	case 1:
		m = Mutation{Op: "flipbit", Off: c.rng.Intn(len(buf) * 8)}
	default:
		off := c.rng.Intn(len(buf))
		n := 1 + c.rng.Intn(16)
		m = Mutation{Op: "droprange", Off: off, N: n}
	}
	return m.Apply(buf), m
}

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ballarus"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/staticanalysis"
	"repro/internal/vm"
)

// The bug hunt runs its seeds on runtime.GOMAXPROCS(0) workers and
// commits their results in the serial loop's order. Attempts are numbered
// by position: level li, seed offset off sits at li*SeedLimit+off, so the
// serial loop's order is ascending position with the tail of each level
// skipped once the level is cut. Workers take positions in that order, at
// most window ahead of the committer; the committer (Record) reads results
// one position at a time and applies the serial rules to the committed
// prefix only. What a worker ran past a level's cutoff is stopped through
// vm.Config.Stop and thrown away, so the outcome is a function of the
// options alone, never of timing — except where a deadline or cancellation
// cuts the hunt short, exactly as in a serial hunt.

// seedResult is one finished attempt as the committer sees it.
type seedResult struct {
	// rec is the recording, kept only when the run failed an assertion.
	rec *Recording
	// instrs counts the instructions the attempt executed.
	instrs int64
	err    error
}

// hunt is the shared state of one parallel bug hunt.
type hunt struct {
	prog    *ir.Program
	opts    RecordOptions
	sharing *escape.Result
	static  *staticanalysis.Result
	paths   []*ballarus.FuncPaths
	demoted []bool
	ladder  []int
	// deadline and opts.Ctx bound the hunt (zero: no deadline).
	deadline time.Time

	workers int
	limit   int64 // seeds per level (SeedLimit)
	total   int64 // positions over all levels
	window  int64 // how far workers may run ahead of the committer

	// cut[li] is the last seed offset level li needs: SeedLimit-1 until
	// the committer accepts the level's last failure.
	cut []atomic.Int64
	// halt stops every worker and running seed when the hunt ends.
	halt atomic.Bool
	wg   sync.WaitGroup

	mu      sync.Mutex
	cond    sync.Cond
	next    int64 // next position to hand to a worker
	commit  int64 // position the committer waits for
	results map[int64]seedResult
}

// startHunt launches the workers; the caller commits with await and must
// call stop when done.
func startHunt(prog *ir.Program, opts RecordOptions, ladder []int, sharing *escape.Result, static *staticanalysis.Result, paths []*ballarus.FuncPaths, deadline time.Time) *hunt {
	h := &hunt{
		prog: prog, opts: opts, sharing: sharing, static: static, paths: paths,
		ladder: ladder, deadline: deadline,
		limit:   opts.SeedLimit,
		total:   int64(len(ladder)) * opts.SeedLimit,
		cut:     make([]atomic.Int64, len(ladder)),
		results: map[int64]seedResult{},
	}
	if !opts.NoDemote {
		h.demoted = demotedGlobals(sharing, static)
	}
	h.cond.L = &h.mu
	for i := range h.cut {
		h.cut[i].Store(h.limit - 1)
	}
	h.workers = int(min(int64(runtime.GOMAXPROCS(0)), h.total))
	// Two positions per worker keep the workers busy past a slow seed
	// while wasting few seeds past a level's cutoff (DESIGN.md, "Record
	// hunt").
	h.window = 2 * int64(h.workers)
	h.wg.Add(h.workers)
	for range h.workers {
		go h.work()
	}
	return h
}

// work is one worker's loop: take the next position, run it, post it.
// The worker's scheduler is reset for every seed; re-seeding it instead
// of allocating a generator per seed saves a third of the hunt's
// allocated bytes and a fifth of its time.
func (h *hunt) work() {
	defer h.wg.Done()
	sched := vm.NewRandomScheduler(0)
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		pos, ok := h.take()
		if !ok {
			return
		}
		h.mu.Unlock()
		r := h.run(pos, sched)
		h.mu.Lock()
		// A seed past its level's cutoff is never committed; cutLevel
		// already dropped the finished ones.
		if pos%h.limit <= h.cut[pos/h.limit].Load() {
			h.results[pos] = r
			h.cond.Broadcast()
		}
	}
}

// take hands out the next position in serial order, skipping the tail of
// a level that is already cut. It waits while the window is full and
// reports false once nothing is left. Called with mu held.
func (h *hunt) take() (int64, bool) {
	for {
		if h.halt.Load() {
			return 0, false
		}
		if h.next < h.total {
			li, off := h.next/h.limit, h.next%h.limit
			if off > h.cut[li].Load() {
				h.next = (li + 1) * h.limit
				continue
			}
		}
		if h.next >= h.total {
			return 0, false
		}
		if h.next < h.commit+h.window {
			h.next++
			return h.next - 1, true
		}
		h.cond.Wait()
	}
}

// run executes the attempt at pos, unless it is no longer needed. A panic
// in the run becomes the attempt's error: on a worker goroutine it would
// otherwise take the process down instead of reaching Record's caller.
func (h *hunt) run(pos int64, sched *vm.RandomScheduler) (r seedResult) {
	li, off := int(pos/h.limit), pos%h.limit
	defer func() {
		if p := recover(); p != nil {
			r = seedResult{err: fmt.Errorf("core: recording seed %d panicked: %v", h.opts.Seed+off, p)}
		}
	}()
	stop := func() bool {
		return h.halt.Load() || off > h.cut[li].Load() || huntInterrupted(h.opts.Ctx, h.deadline)
	}
	if stop() {
		return seedResult{err: vm.ErrInterrupted}
	}
	attempt := h.opts
	attempt.Chaos = h.ladder[li]
	rec, instrs, err := runSeed(h.prog, h.opts.Seed+off, attempt, h.sharing, h.static, h.paths, h.demoted, sched, stop)
	if rec != nil && (rec.Failure == nil || rec.Failure.Kind != vm.FailAssert) {
		rec = nil
	}
	return seedResult{rec: rec, instrs: instrs, err: err}
}

// await returns the result at pos, the next position the committer
// accepts; everything before pos is committed or skipped.
func (h *hunt) await(li int, off int64) seedResult {
	pos := int64(li)*h.limit + off
	h.mu.Lock()
	defer h.mu.Unlock()
	h.commit = pos
	h.cond.Broadcast()
	for {
		if r, ok := h.results[pos]; ok {
			delete(h.results, pos)
			return r
		}
		h.cond.Wait()
	}
}

// cutLevel ends level li at seed offset off: later seeds of the level are
// skipped, stopped if running, and dropped if finished.
func (h *hunt) cutLevel(li int, off int64) {
	h.cut[li].Store(off)
	h.mu.Lock()
	defer h.mu.Unlock()
	lo, hi := int64(li)*h.limit+off, int64(li+1)*h.limit
	for pos := range h.results {
		if pos > lo && pos < hi {
			delete(h.results, pos)
		}
	}
	h.cond.Broadcast()
}

// stop ends the hunt: running seeds are interrupted and the workers exit
// before it returns.
func (h *hunt) stop() {
	h.halt.Store(true)
	h.mu.Lock()
	h.cond.Broadcast()
	h.mu.Unlock()
	h.wg.Wait()
}

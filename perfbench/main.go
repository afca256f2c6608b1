// Command perfbench is the repository's end-to-end benchmark. It drives
// the CLAP layers through three user actions over the eleven
// internal/bench programs and prints every metric by name with its unit:
//
//	reproduce-default  clap bench <name>: compile, record, solve, replay
//	record-hunt        clap record: compile, record, encode the framed log
//	clapd-upload       POST a bundle to an in-process clapd and poll it
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload reproduce-default --seed 0 --seconds 20 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 a traced run follows an untraced one and the last line
// carries the per-layer metrics. See README.md for the definitions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
)

const (
	// setupRounds is how many times a run repeats its set-up; setup_s is
	// the median.
	setupRounds = 3
	// memberStride separates the start seeds of a pool's members, so their
	// record hunts do not overlap.
	memberStride = 1_000_003
)

// pool is a fixed set of record-hunt start seeds: member k hunts from
// k·memberStride (core.RecordOptions.Seed). Pass p hunts from member
// (seed + p) mod size, and a run makes whole rounds of the pool, so every
// run covers the same recordings whatever its seed: which failing
// execution a hunt finds sets much of a job's cost, and the spread between
// runs should measure the system rather than the inputs. Member 0 hunts
// from 0, the CLI default.
type pool struct {
	seed int64
	size int
}

// member returns the pool member pass p hunts from.
func (pl pool) member(p int) int {
	n := int64(pl.size)
	return int(((pl.seed%n+n)%n + int64(p)%n) % n)
}

func huntSeed(member int) int64 { return int64(member) * memberStride }

// guard is the determinism guard: every recording a run makes from one
// start seed must match the first one, by hunt seed and log digest.
type guard map[string]fingerprint

func (g guard) check(prog string, member int, fp fingerprint) error {
	key := fmt.Sprintf("%s/%d", prog, member)
	if first, ok := g[key]; !ok {
		g[key] = fp
	} else if fp != first {
		return fmt.Errorf("determinism guard: %s recorded %+v, earlier %+v from the same start seed", key, fp, first)
	}
	return nil
}

// workload is one user action over the benchmark programs.
type workload interface {
	// pool returns the record-hunt start seeds the passes rotate through.
	pool() pool
	// setup prepares everything the timed loop needs and returns each
	// program's recording fingerprint.
	setup() (map[string]fingerprint, error)
	// pass runs pass number p: every program once, in order, under tr
	// (nil = untraced), numbering jobs from firstJob. It returns the
	// jobs and the pass's timed wall time.
	pass(order []bench.Benchmark, p int, tr *tracer, firstJob int) ([]jobResult, time.Duration, error)
	// probe times single layer calls outside any job (traced run only).
	probe(order []bench.Benchmark, tr *tracer, firstJob int) error
}

// fingerprint identifies a recording: the hunt's winning seed and a
// digest of its framed path log.
type fingerprint struct {
	Seed     int64
	LogBytes int
	Digest   string
}

func fingerprintOf(seed int64, framed []byte) fingerprint {
	sum := sha256.Sum256(framed)
	return fingerprint{Seed: seed, LogBytes: len(framed), Digest: hex.EncodeToString(sum[:8])}
}

// jobResult is one job's outcome.
type jobResult struct {
	prog    string
	job     int
	latency time.Duration
	// solved reports a correct, checked verdict within the limit.
	solved bool
	// charge is the job's preemptions_sum contribution (see sapCharge).
	charge   int
	logBytes int
	// counts carries per-layer work counts for the traced run.
	counts map[string]float64
}

// runStats gathers one loop's jobs and wall time.
type runStats struct {
	jobs   []jobResult
	wall   time.Duration
	passes int
	// peakHeapMB is each pass's peak heap (untraced loop only).
	peakHeapMB []float64
}

func main() {
	var (
		name    = flag.String("workload", "", "reproduce-default | record-hunt | clapd-upload")
		seed    = flag.Int64("seed", 0, "workload seed: job order and the record hunts' start seeds")
		seconds = flag.Int("seconds", 20, "measuring time of one run")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir = flag.String("workdir", ".bench_build/perfbench-work", "scratch directory for daemon state and spans")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed int64, workdir string) (workload, error) {
	switch name {
	case "reproduce-default":
		// One member, the CLI default: a run holds only two ~14 s passes,
		// and a recording decides whether a program solves within the
		// limit at all (apache solves in 0.1 s from some start seeds and
		// not in 3 s from others).
		return &local{pl: pool{size: 1}, limit: 3 * time.Second, reproduce: true, guard: guard{}}, nil
	case "record-hunt":
		return &local{pl: pool{seed, 16}, guard: guard{}}, nil
	case "clapd-upload":
		return &service{dir: workdir, guard: guard{}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func run(name string, seed int64, seconds time.Duration, traced bool, workdir string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	w, err := newWorkload(name, seed, workdir)
	if err != nil {
		return err
	}

	setups, prints, err := setupRepeated(w)
	if err != nil {
		return err
	}
	for _, prog := range sortedKeys(prints) {
		fp := prints[prog]
		fmt.Printf("recording %-9s hunt_seed=%d log=%dB sha256=%s\n", prog, fp.Seed, fp.LogBytes, fp.Digest)
	}
	fmt.Printf("workload %s seed %d GOMAXPROCS=%d NumCPU=%d\n", name, seed, runtime.GOMAXPROCS(0), runtime.NumCPU())

	budget := seconds
	if traced {
		budget = seconds / 2
	}
	heap := startHeapSampler()
	plain, loopErr := loop(w, seed, budget, 0, nil, 0, heap)
	heap.stop()
	if loopErr != nil {
		return report(false, plain, nil, loopErr)
	}
	if !traced {
		ms := endToEnd(plain, setups)
		return report(true, plain, ms, nil)
	}

	tr := newTracer()
	// The traced loop repeats the untraced one: same passes, same orders.
	tracedRun, loopErr := loop(w, seed, 0, plain.passes, tr, len(plain.jobs), nil)
	if loopErr == nil {
		// The probes time single layer calls once per pass, after the
		// passes, so they never overlap a job.
		for p := 0; p < tracedRun.passes && loopErr == nil; p++ {
			loopErr = w.probe(bench.All(), tr, 1_000_000*(p+1))
		}
	}
	if loopErr != nil {
		return report(false, tracedRun, nil, loopErr)
	}
	ms := perLayer(plain, tracedRun, tr)
	path := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.json", name, seed))
	if err := tr.write(path, map[string]any{
		"workload": name, "seed": seed, "gomaxprocs": runtime.GOMAXPROCS(0), "passes": tracedRun.passes,
	}); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return report(true, tracedRun, ms, nil)
}

// setupRepeated runs the set-up setupRounds times and returns the
// median time. The rounds record the same programs from the same seeds,
// so the determinism guard compares them.
func setupRepeated(w workload) (time.Duration, map[string]fingerprint, error) {
	var times []float64
	var prints map[string]fingerprint
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		var err error
		if prints, err = w.setup(); err != nil {
			return 0, nil, fmt.Errorf("member-up: %w", err)
		}
		times = append(times, float64(time.Since(start)))
	}
	return time.Duration(median(times)), prints, nil
}

// loop runs whole passes over the programs, each in a fresh seeded
// order. With passes > 0 it runs exactly that many. Otherwise it runs
// whole rounds of the pool, as many as fit budget at the mean pass time,
// rounded to the nearest round and at least one: every run then covers
// each pool member equally often, and a pass time near a boundary does
// not flip the count.
func loop(w workload, seed int64, budget time.Duration, passes int, tr *tracer, firstJob int, heap *heapSampler) (runStats, error) {
	rng := rand.New(rand.NewSource(seed))
	round := w.pool().size
	var rs runStats
	for {
		all := bench.All()
		order := make([]bench.Benchmark, len(all))
		for i, p := range rng.Perm(len(all)) {
			order[i] = all[p]
		}
		heap.reset()
		jobs, took, err := w.pass(order, rs.passes, tr, firstJob+len(rs.jobs))
		rs.peakHeapMB = append(rs.peakHeapMB, heap.peakMB())
		rs.jobs = append(rs.jobs, jobs...)
		rs.wall += took
		rs.passes++
		roundTime := rs.wall / time.Duration(rs.passes) * time.Duration(round)
		switch {
		case err != nil:
			return rs, err
		case passes > 0 && rs.passes >= passes:
			return rs, nil
		case passes == 0 && rs.passes%round == 0 && rs.wall+roundTime/2 > budget:
			return rs, nil
		}
	}
}

// heapSampler polls the Go heap during the timed loop. A nil sampler
// samples nothing.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		v := sample[0].Value.Uint64()
		for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
		}
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// reset starts a new peak.
func (h *heapSampler) reset() {
	if h != nil {
		h.peak.Store(0)
	}
}

// peakMB returns the peak heap since the last reset, in MB.
func (h *heapSampler) peakMB() float64 {
	if h == nil {
		return 0
	}
	return float64(h.peak.Load()) / (1 << 20)
}

// stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}

// endToEnd computes the end-to-end metrics of an untraced loop.
func endToEnd(rs runStats, setup time.Duration) map[string]metric {
	lat := byProgram{}
	charge := byProgram{}
	logs := byProgram{}
	solved := 0
	for _, j := range rs.jobs {
		lat.add(j.prog, ms(j.latency))
		charge.add(j.prog, float64(j.charge))
		logs.add(j.prog, float64(j.logBytes))
		if j.solved {
			solved++
		}
	}
	means := lat.means()
	worst := 0.0
	for _, m := range means {
		worst = max(worst, m)
	}
	fmt.Printf("passes %d, jobs %d, solved %d, wall %.3fs\n", rs.passes, len(rs.jobs), solved, rs.wall.Seconds())
	unsolved := map[string]int{}
	for _, j := range rs.jobs {
		if !j.solved {
			unsolved[j.prog]++
		}
	}
	for _, prog := range sortedKeys(unsolved) {
		fmt.Printf("unsolved  %-9s %d of %d jobs\n", prog, unsolved[prog], len(lat[prog]))
	}
	for i, prog := range sortedKeys(lat) {
		fmt.Printf("latency %-9s mean %10.3f ms, median %10.3f ms, over %d jobs\n",
			prog, means[i], median(lat[prog]), len(lat[prog]))
	}
	return map[string]metric{
		"jobs_per_s":         {float64(solved) / rs.wall.Seconds(), "1/s"},
		"latency_geomean_ms": {geomean(means), "ms"},
		"latency_worst_ms":   {worst, "ms"},
		"solved_share":       {float64(solved) / float64(len(rs.jobs)), "ratio"},
		"preemptions_sum":    {charge.meanSum(), "count"},
		"log_bytes_sum":      {logs.meanSum(), "bytes"},
		"setup_s":            {setup.Seconds(), "s"},
		"peak_heap_mb":       {median(rs.peakHeapMB), "MB"},
	}
}

// report prints the result line. A failed check still prints the line,
// with correct=false, and makes the run exit non-zero.
func report(correct bool, rs runStats, ms map[string]metric, runErr error) error {
	if ms == nil {
		ms = map[string]metric{}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(len(rs.jobs), 1), 0, ms}
	if !correct {
		out.Failed = 1
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return runErr
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

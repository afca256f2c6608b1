package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/ballarus"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/solver"
	"repro/internal/staticanalysis"
	"repro/internal/trace"
	"repro/internal/vm"
)

// local is the developer path on one machine. With reproduce set it is
// `clap bench <name>` with the CLI's default options under a per-job
// limit (reproduce-default); without, it is `clap record`
// (record-hunt).
type local struct {
	pl        pool
	limit     time.Duration // 0 = none
	reproduce bool
	guard     guard
}

// setup compiles and records every program from the first pass's start
// seed.
func (w *local) setup() (map[string]fingerprint, error) {
	member := w.pl.member(0)
	prints := map[string]fingerprint{}
	for _, b := range bench.All() {
		prog, err := core.Compile(b.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		rec, err := core.Record(prog, w.recordOptions(b, member, 0, nil))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		fp := fingerprintOf(rec.Seed, rec.Log.EncodeFramed(trace.FramedOptions{}))
		if err := w.guard.check(b.Name, member, fp); err != nil {
			return nil, err
		}
		prints[b.Name] = fp
	}
	return prints, nil
}

// recordOptions are the options `clap bench` and `clap record` pass.
func (w *local) pool() pool { return w.pl }

func (w *local) recordOptions(b bench.Benchmark, member int, deadline time.Duration, tr *obs.Trace) core.RecordOptions {
	return core.RecordOptions{
		Model: b.Model, Inputs: b.Inputs, Seed: huntSeed(member), SeedLimit: b.SeedLimit,
		Deadline: deadline, Obs: tr,
	}
}

func (w *local) pass(order []bench.Benchmark, p int, tr *tracer, firstJob int) ([]jobResult, time.Duration, error) {
	member := w.pl.member(p)
	var out []jobResult
	start := time.Now()
	for i, b := range order {
		// Each `clap bench` or `clap record` is a fresh process: collect
		// the previous job's garbage before timing the next.
		runtime.GC()
		res, err := w.job(b, member, tr, firstJob+i)
		out = append(out, res)
		if err != nil {
			return out, time.Since(start), fmt.Errorf("%s: %w", b.Name, err)
		}
	}
	return out, time.Since(start), nil
}

// job runs one program through the workload's user action, then checks
// the verdict. An error is a wrong verdict; a job that runs out of its
// limit returns solved=false and no error.
func (w *local) job(b bench.Benchmark, member int, tr *tracer, id int) (jobResult, error) {
	res := jobResult{prog: b.Name, job: id, counts: map[string]float64{}}
	start := time.Now()
	remaining := func() time.Duration {
		if w.limit == 0 {
			return 0
		}
		// Zero would mean "no bound": an exhausted limit becomes 1ns,
		// which every layer reports as an interrupt.
		return max(w.limit-time.Since(start), time.Nanosecond)
	}
	timedOut := func() bool { return w.limit > 0 && time.Since(start) >= w.limit }
	root := tr.begin("job", id, -1, b.Name)

	sp := tr.begin("ir.compile", id, root, b.Name)
	prog, err := core.Compile(b.Source)
	tr.end(sp)
	if err != nil {
		return res, err
	}
	res.counts["ir.instrs"] = float64(instrCount(prog))

	var recObs *obs.Trace
	if tr != nil {
		recObs = obs.NewTrace("record")
	}
	sp = tr.begin("vm.hunt", id, root, b.Name)
	rec, err := core.Record(prog, w.recordOptions(b, member, remaining(), recObs))
	tr.end(sp)
	if recObs != nil {
		reg := recObs.Reg()
		res.counts["vm.seeds"] = float64(reg.Get("record.seeds"))
		res.counts["vm.failures"] = float64(reg.Get("record.failures"))
		res.counts["vm.livelocked"] = float64(reg.Get("record.livelocked"))
	}
	var nf *core.NoFailureError
	if errors.As(err, &nf) && nf.Interrupted {
		tr.end(root)
		res.latency = time.Since(start)
		return res, nil // the hunt ran out of the job's limit
	}
	if err != nil {
		return res, err
	}
	if rec.Failure == nil || rec.Failure.Kind != vm.FailAssert {
		return res, fmt.Errorf("recorded %v, want an assertion failure", rec.Failure)
	}
	hunted := !timedOut()
	res.charge = sapCharge(false, 0, int(rec.Run.VisibleEvents))

	var framed []byte
	var rep *core.Reproduction
	var rerr error
	if w.reproduce {
		// `clap bench`: solve with SkipReplay, then replay under the same
		// trace, passing what is left of the limit to each.
		cs := -1
		if b.MaxPreemptions != 0 {
			cs = b.MaxPreemptions
		}
		sp = tr.begin("core.reproduce", id, root, b.Name)
		rep, rerr = core.Reproduce(rec, core.ReproduceOptions{
			SeqOptions: solver.Options{MaxPreemptions: cs},
			Deadline:   remaining(),
			SkipReplay: true,
		})
		tr.end(sp)
		if rep != nil {
			tr.importObs(rep.Trace.Report().Root, id, sp, b.Name)
			solveCounts(res.counts, rep.Trace.Report())
		}
		if rerr == nil {
			sp = tr.begin("replay", id, root, b.Name)
			_, rerr = rep.Replay(replay.Options{
				Mode: replay.ModeFor(b.Model), Inputs: b.Inputs, Deadline: remaining(),
			})
			tr.end(sp)
		}
	} else {
		sp = tr.begin("trace.encode", id, root, b.Name)
		framed = rec.Log.EncodeFramed(trace.FramedOptions{})
		tr.end(sp)
	}
	tr.end(root)
	res.latency = time.Since(start)

	// Checks, outside the job's latency.
	if framed == nil {
		sp = tr.begin("trace.encode", id, -1, b.Name)
		framed = rec.Log.EncodeFramed(trace.FramedOptions{})
		tr.end(sp)
	}
	res.logBytes = len(framed)
	if hunted {
		if err := w.guard.check(b.Name, member, fingerprintOf(rec.Seed, framed)); err != nil {
			return res, err
		}
	}
	sp = tr.begin("trace.decode", id, -1, b.Name)
	back, err := trace.DecodeFramedPathLog(framed)
	tr.end(sp)
	if err != nil {
		return res, fmt.Errorf("framed log does not decode: %w", err)
	}
	if !reflect.DeepEqual(back.Threads, rec.Log.Threads) {
		return res, fmt.Errorf("framed log decodes to different events")
	}
	if !w.reproduce {
		res.solved = true
		return res, nil
	}
	return res, w.checkReproduction(rep, rerr, timedOut(), tr, &res)
}

// checkReproduction judges a reproduce-default job. Running out of the
// limit is an unsolved job; any other failure, an unreproduced replay or
// a schedule the constraint system rejects is a wrong verdict.
func (w *local) checkReproduction(rep *core.Reproduction, rerr error, timedOut bool, tr *tracer, res *jobResult) error {
	if rep != nil && rep.System != nil {
		st := rep.System.ComputeStats()
		res.charge = sapCharge(false, 0, st.SAPs)
		res.counts["constraints.saps"] = float64(st.SAPs)
		res.counts["constraints.clauses"] = float64(st.Clauses)
		if pre := rep.System.Pre; pre != nil {
			res.counts["constraints.cands_before"] = float64(pre.CandsBefore)
			res.counts["constraints.cands_after"] = float64(pre.CandsAfter)
		}
	}
	var intr *solver.Interrupted
	if rerr != nil {
		if timedOut || errors.As(rerr, &intr) {
			res.counts["solve.timeouts"] = 1
			return nil
		}
		return rerr
	}
	if rep.Outcome == nil || !rep.Outcome.Reproduced {
		return fmt.Errorf("replay did not reproduce the failure")
	}
	sp := tr.begin("constraints.validate", res.job, -1, res.prog)
	_, verr := rep.System.ValidateSchedule(rep.Solution.Order)
	tr.end(sp)
	if verr != nil {
		return fmt.Errorf("solved schedule fails validation: %w", verr)
	}
	if timedOut {
		res.counts["solve.timeouts"] = 1
		return nil // correct, but not within the limit
	}
	res.solved = true
	res.counts["replay.reproduced"] = 1
	res.charge = sapCharge(true, rep.Solution.Preemptions, 0)
	return nil
}

// probe times the per-program static analyses as separate calls; the
// recorder runs them inside core.Record.
func (w *local) probe(order []bench.Benchmark, tr *tracer, firstJob int) error {
	return probeStatic(order, tr, firstJob)
}

func probeStatic(order []bench.Benchmark, tr *tracer, firstJob int) error {
	for i, b := range order {
		prog, err := core.Compile(b.Source)
		if err != nil {
			return err
		}
		sp := tr.begin("staticanalysis.analyze", firstJob+i, -1, b.Name)
		escape.Analyze(prog)
		staticanalysis.Analyze(prog)
		_, err = ballarus.ProgramPaths(prog)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// solveCounts takes the solve layer's stage times from a clap-metrics/1
// report: the pipeline mirrors each entry of its Attempts trail as a
// "solve.<stage>" child of the "solve" span, with its outcome.
func solveCounts(counts map[string]float64, r *obs.Report) {
	sp := r.Span("solve")
	if sp == nil || sp.DurNs < 0 {
		return
	}
	wall := time.Duration(sp.DurNs)
	var won, all time.Duration
	for _, c := range sp.Children {
		d := time.Duration(max(c.DurNs, 0))
		all += d
		if c.Attrs["outcome"] == "solved" && won == 0 {
			won = d
		}
	}
	counts["solve.ms"] = ms(wall)
	counts["solve.wait_ms"] = ms(wall - won)
	counts["solve.wasted_ms"] = ms(all - won)
	counts["solve.useful_ms"] = ms(won)
	counts["solve.stage_ms"] = ms(all)
}

func instrCount(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

package main

import (
	"fmt"
	"time"
)

// spanLayers maps per-layer time metrics to the span names they sum.
var spanLayers = []struct{ metric, span, unit string }{
	{"ir.compile_ms", "ir.compile", "ms"},
	{"staticanalysis.analyze_ms", "staticanalysis.analyze", "ms"},
	{"vm.hunt_ms", "vm.hunt", "ms"},
	{"trace.encode_us", "trace.encode", "us"},
	{"trace.decode_us", "trace.decode", "us"},
	{"core.rehydrate_ms", "core.rehydrate", "ms"},
	{"symexec.build_ms", "symexec.build", "ms"},
	{"constraints.preprocess_us", "constraints.preprocess", "us"},
	{"constraints.validate_us", "constraints.validate", "us"},
	{"replay.ms", "replay", "ms"},
	{"timeline.build_ms", "timeline.build", "ms"},
	{"explain.diff_ms", "explain.diff", "ms"},
	{"races.detect_ms", "races.detect", "ms"},
	{"clapd.queue_wait_ms", "clapd.queue_wait", "ms"},
	{"clapd.run_ms", "clapd.run", "ms"},
}

// countLayers are per-job counts reported as their per-pass value.
var countLayers = []struct{ metric, unit string }{
	{"ir.instrs", "count"},
	{"vm.seeds", "count"},
	{"constraints.saps", "count"},
	{"constraints.clauses", "count"},
	{"solve.ms", "ms"},
	{"solve.wait_ms", "ms"},
	{"solve.wasted_ms", "ms"},
	{"solve.timeouts", "count"},
	{"replay.reproduced", "count"},
	{"clapd.ingest_ms", "ms"},
	{"clapd.dedupe_ms", "ms"},
}

// perLayer computes the per-layer metrics of a traced run. Every value
// is per pass over the eleven programs: the per-program medians, summed.
// A layer the workload does not run reads 0.
func perLayer(plain, traced runStats, tr *tracer) map[string]metric {
	out := map[string]metric{}
	self := selfTimes(tr.spans)

	// Span time per (job, layer), then per-program medians.
	type key struct {
		job  int
		name string
	}
	perJob := map[key]time.Duration{}
	progOf := map[int]string{}
	for _, s := range tr.spans {
		perJob[key{s.Job, s.Name}] += s.dur()
		progOf[s.Job] = s.Prog
	}
	for _, l := range spanLayers {
		b := byProgram{}
		for k, d := range perJob {
			if k.name == l.span {
				if l.unit == "us" {
					b.add(progOf[k.job], us(d))
				} else {
					b.add(progOf[k.job], ms(d))
				}
			}
		}
		out[l.metric] = metric{b.meanSum(), l.unit}
	}

	sums := map[string]float64{}
	for _, l := range countLayers {
		b := byProgram{}
		for _, j := range traced.jobs {
			b.add(j.prog, j.counts[l.metric])
		}
		out[l.metric] = metric{b.meanSum(), l.unit}
	}
	for _, j := range traced.jobs {
		for k, v := range j.counts {
			sums[k] += v
		}
	}
	b := byProgram{}
	for _, j := range traced.jobs {
		b.add(j.prog, float64(j.logBytes))
	}
	out["trace.log_bytes"] = metric{b.meanSum(), "bytes"}
	out["vm.us_per_seed"] = metric{share(1000*out["vm.hunt_ms"].Value, out["vm.seeds"].Value), "us"}
	out["vm.failing_seed_share"] = metric{share(sums["vm.failures"], sums["vm.seeds"]), "ratio"}
	out["vm.livelocked_share"] = metric{share(sums["vm.livelocked"], sums["vm.seeds"]), "ratio"}
	out["constraints.cands_kept_share"] = metric{share(sums["constraints.cands_after"], sums["constraints.cands_before"]), "ratio"}
	out["solve.useful_share"] = metric{share(sums["solve.useful_ms"], sums["solve.stage_ms"]), "ratio"}
	polls := 0.0
	if _, ok := sums["clapd.polls"]; ok {
		polls = sums["clapd.polls"] / float64(len(traced.jobs))
	}
	out["clapd.polls_per_job"] = metric{polls, "count"}
	out["clapd.retries"] = metric{sums["clapd.retries"], "count"}

	// Tracing overhead and how much of the traced job time the layer
	// spans account for, as mean job time per pass.
	perPass := func(rs runStats) float64 {
		var sum time.Duration
		for _, j := range rs.jobs {
			sum += j.latency
		}
		return ms(sum) / float64(rs.passes)
	}
	untracedMs, tracedMs := perPass(plain), perPass(traced)
	var rootTime, layerTime time.Duration
	for i, s := range tr.spans {
		switch r := rootOf(tr.spans, i); {
		case tr.spans[r].Name != "job":
		case i == r:
			rootTime += s.dur()
		default:
			layerTime += self[i]
		}
	}
	layerMs := ms(layerTime) / float64(traced.passes)
	out["tracing.overhead_ms"] = metric{tracedMs - untracedMs, "ms"}
	out["tracing.layer_share"] = metric{share(float64(layerTime), float64(rootTime)), "ratio"}
	fmt.Printf("tracing: per pass, layer self time %.1f ms + unattributed %.1f ms = traced job time %.1f ms = untraced %.1f ms + overhead %.1f ms\n",
		layerMs, ms(rootTime-layerTime)/float64(traced.passes), tracedMs, untracedMs, tracedMs-untracedMs)
	return out
}

// rootOf follows parent links to span i's root.
func rootOf(spans []span, i int) int {
	for spans[i].Parent >= 0 {
		i = spans[i].Parent
	}
	return i
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed layer call: its name, interval, the span that caused
// it (-1 for a job's root) and the job it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Prog   string `json:"prog,omitempty"`
	// StartNs and EndNs are nanoseconds since the tracer was created.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays only for a nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, job, parent int, prog string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Job: job, Name: name, Prog: prog, StartNs: now, EndNs: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (by the
// daemon's event log or a returned clap-metrics/1 report), clipped to
// its parent's interval so a child never claims time its parent lacks.
func (t *tracer) add(name string, job, parent int, prog string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	s := span{Parent: parent, Job: job, Name: name, Prog: prog,
		StartNs: int64(start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		p := t.spans[parent]
		s.StartNs = max(s.StartNs, p.StartNs)
		if p.EndNs >= 0 {
			s.EndNs = min(s.EndNs, p.EndNs)
		}
	}
	s.EndNs = max(s.EndNs, s.StartNs)
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// importObs copies an obs span tree (the spans a layer reports about its
// own sub-steps) under parent, renaming the layers it knows. Spans with
// no entry in layerNames fold into their parent's self time. That
// includes the solve stages, which may race one another: overlapping
// siblings would count the same wall time twice, so their times are
// reported through solveCounts instead.
func (t *tracer) importObs(sp *obs.Span, job, parent int, prog string) {
	if t == nil || sp == nil {
		return
	}
	for _, c := range sp.Children {
		name, ok := layerNames[c.Name]
		if !ok || c.DurNs < 0 {
			continue
		}
		start := time.Unix(0, c.StartNs)
		id := t.add(name, job, parent, prog, start, start.Add(time.Duration(c.DurNs)))
		t.importObs(c, job, id, prog)
	}
}

// layerNames maps the program's own span names to the benchmark's layer
// names.
var layerNames = map[string]string{
	"job.rehydrate": "core.rehydrate",
	"symexec":       "symexec.build",
	"preprocess":    "constraints.preprocess",
	"solve":         "solve",
	"replay":        "replay",
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by its children.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].StartNs, s.StartNs), min(spans[k].EndNs, s.EndNs)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, reach int64
		reach = s.StartNs
		for _, v := range iv {
			if v[1] <= reach {
				continue
			}
			covered += v[1] - max(v[0], reach)
			reach = v[1]
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// write stores the spans and their self times as JSON.
func (t *tracer) write(path string, meta map[string]any) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	type out struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	rows := make([]out, len(t.spans))
	for i, s := range t.spans {
		rows[i] = out{s, int64(self[i])}
	}
	data, err := json.Marshal(map[string]any{"meta": meta, "spans": rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

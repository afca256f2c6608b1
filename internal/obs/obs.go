// Package obs is the pipeline's unified observability layer: a
// hierarchical span tree for phase timings, a typed counter/gauge
// registry under stable dotted names, a machine-readable run report
// (span tree + counters, see report.go), and an optional progress
// heartbeat for long solves (heartbeat.go).
//
// The package is stdlib-only and every entry point is nil-safe: a nil
// *Trace, *Span or *Registry is a no-op, so instrumentation threads
// through the pipeline unconditionally and costs nothing when the caller
// asked for no metrics. The span tree replaces the hand-rolled per-phase
// duration fields that used to live on core.Reproduction; the registry
// consolidates the per-phase stats structs (core.LevelStats,
// constraints.PreStats, solver.Stats, parsolve.Result, cnfsolver.Stats)
// under the stable names in names.go.
package obs

import (
	"strconv"
	"sync"
	"time"
)

// Span is one timed node of the trace tree. The exported fields are the
// wire format of the metrics report; they are written once (under the
// span's lock) and must not be mutated after Report is taken.
type Span struct {
	// Name identifies the phase or sub-step ("record", "solve.cnf", …).
	Name string `json:"name"`
	// StartNs is the span's start as Unix nanoseconds.
	StartNs int64 `json:"start_ns"`
	// DurNs is the span's duration in nanoseconds; -1 while still open.
	DurNs int64 `json:"dur_ns"`
	// Attrs carries string attributes (outcome, solver, chaos level, …).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Children are sub-spans in start order.
	Children []*Span `json:"children,omitempty"`

	mu    sync.Mutex
	start time.Time // monotonic start for Duration/End
}

// Trace owns a span tree and a registry for one pipeline run.
type Trace struct {
	root *Span
	reg  *Registry

	mu        sync.Mutex
	artifacts map[string]string
}

// AddArtifact links a run artifact (a file the pipeline wrote, like the
// flight-recorder timeline JSON) into the trace's report under a short
// kind name. The last path registered for a kind wins.
func (t *Trace) AddArtifact(kind, path string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.artifacts == nil {
		t.artifacts = map[string]string{}
	}
	t.artifacts[kind] = path
	t.mu.Unlock()
}

// Artifacts snapshots the registered artifact links (nil when none).
func (t *Trace) Artifacts() map[string]string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.artifacts) == 0 {
		return nil
	}
	m := make(map[string]string, len(t.artifacts))
	for k, v := range t.artifacts {
		m[k] = v
	}
	return m
}

// NewTrace starts a trace whose root span is opened now.
func NewTrace(name string) *Trace {
	return &Trace{root: newSpan(name), reg: NewRegistry()}
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Reg returns the trace's counter registry (nil for a nil trace).
func (t *Trace) Reg() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

func newSpan(name string) *Span {
	now := time.Now()
	return &Span{Name: name, StartNs: now.UnixNano(), DurNs: -1, start: now}
}

// Start opens a child span. Safe to call concurrently on one parent.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// End closes the span. Idempotent: the first End wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.DurNs < 0 {
		s.DurNs = int64(time.Since(s.start))
	}
	s.mu.Unlock()
}

// SetAttr records a string attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[k] = v
	s.mu.Unlock()
}

// SetInt records an integer attribute.
func (s *Span) SetInt(k string, v int64) { s.SetAttr(k, itoa(v)) }

// Attr returns an attribute value ("" when absent or s is nil).
func (s *Span) Attr(k string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Attrs[k]
}

// Duration is the span's wall time: its recorded duration once ended,
// the live elapsed time while open, 0 for nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.DurNs >= 0 {
		return time.Duration(s.DurNs)
	}
	if !s.start.IsZero() {
		return time.Since(s.start)
	}
	return 0
}

// Find returns the first span named name in a depth-first walk of the
// subtree rooted at s (including s itself), or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	s.mu.Lock()
	kids := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	for _, c := range kids {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// Walk visits the subtree depth-first, parents before children. depth is
// 0 at s.
func (s *Span) Walk(fn func(sp *Span, depth int)) { s.walk(fn, 0) }

func (s *Span) walk(fn func(*Span, int), depth int) {
	if s == nil {
		return
	}
	fn(s, depth)
	s.mu.Lock()
	kids := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	for _, c := range kids {
		c.walk(fn, depth+1)
	}
}

// snapshot deep-copies the subtree, closing still-open spans at now so a
// report taken mid-run has finite durations.
func (s *Span) snapshot() *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	c := &Span{Name: s.Name, StartNs: s.StartNs, DurNs: s.DurNs}
	if s.DurNs < 0 && !s.start.IsZero() {
		c.DurNs = int64(time.Since(s.start))
	}
	if len(s.Attrs) > 0 {
		c.Attrs = make(map[string]string, len(s.Attrs))
		for k, v := range s.Attrs {
			c.Attrs[k] = v
		}
	}
	kids := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	for _, k := range kids {
		c.Children = append(c.Children, k.snapshot())
	}
	return c
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

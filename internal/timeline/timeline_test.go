package timeline

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vm"
)

// handEvents is a two-thread run: main spawns t1, t1 writes under a lock
// and exits, main joins it and reads the value back.
func handEvents() []vm.VisibleEvent {
	return []vm.VisibleEvent{
		{Kind: vm.EvStart, Thread: 0, Time: 0},
		{Kind: vm.EvSpawn, Thread: 0, Time: 1, Other: 1},
		{Kind: vm.EvStart, Thread: 1, Time: 2},
		{Kind: vm.EvLock, Thread: 1, Time: 3, Obj: 0},
		{Kind: vm.EvWrite, Thread: 1, Time: 4, Var: 2, Addr: 5, Value: 7},
		{Kind: vm.EvUnlock, Thread: 1, Time: 5, Obj: 0},
		{Kind: vm.EvExit, Thread: 1, Time: 6},
		{Kind: vm.EvJoin, Thread: 0, Time: 7, Other: 1},
		{Kind: vm.EvRead, Thread: 0, Time: 8, Var: 2, Addr: 5, Value: 7},
		{Kind: vm.EvWaitBegin, Thread: 0, Time: 9, Obj: 1, Obj2: 0},
		{Kind: vm.EvSpawn, Thread: 0, Time: 10, Other: 3},
		{Kind: vm.EvExit, Thread: 0, Time: 11},
	}
}

func handTimeline() *Timeline {
	return &Timeline{Program: "hand", Execs: []*Execution{FromEvents(ExecRecorded, handEvents(), 1)}}
}

// TestFromEvents: every event lands on its thread's lane with its logical
// time and label, the lane count grows to the highest thread seen, and
// spawn and join arrows connect to the counterpart's start and exit; a
// spawn whose thread never starts gets no arrow.
func TestFromEvents(t *testing.T) {
	ex := FromEvents(ExecReplay, handEvents(), 1)
	if ex.Name != ExecReplay || ex.Threads != 2 || ex.Partial {
		t.Fatalf("execution %q: %d threads, partial %v; want %q, 2, false", ex.Name, ex.Threads, ex.Partial, ExecReplay)
	}
	var labels []string
	for i, e := range ex.Events {
		in := handEvents()[i]
		if e.Thread != int(in.Thread) || e.Time != in.Time || e.Kind != in.Kind.String() {
			t.Errorf("event %d = %+v, from %v", i, e, in)
		}
		labels = append(labels, e.Label)
	}
	want := []string{"start", "spawn t1", "start", "lock m0", "write g2@5=7", "unlock m0",
		"exit", "join t1", "read g2@5=7", "wait-begin c1/m0", "spawn t3", "exit"}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("labels %q, want %q", labels, want)
	}
	arrows := []Arrow{
		{Kind: ArrowSpawn, Label: "spawn t1", FromThread: 0, FromTime: 1, ToThread: 1, ToTime: 2},
		{Kind: ArrowJoin, Label: "join t1", FromThread: 1, FromTime: 6, ToThread: 0, ToTime: 7},
	}
	if !reflect.DeepEqual(ex.Arrows, arrows) {
		t.Errorf("arrows %+v, want %+v", ex.Arrows, arrows)
	}
}

// TestEncodeChromeDeterministic: encoding one timeline twice gives the
// same bytes, and Validate accepts them.
func TestEncodeChromeDeterministic(t *testing.T) {
	tl := handTimeline()
	tl.Execs = append(tl.Execs, &Execution{Name: "attempt:seq", Threads: 1, Partial: true, Depth: 3,
		Events: []Event{{Thread: 0, Time: 0, Kind: "write", Label: "write g0@0", Pos: "4:2"}}})
	a, err := EncodeChrome(tl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeChrome(tl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two encodings differ:\n%s\n%s", a, b)
	}
	if err := Validate(a); err != nil {
		t.Fatalf("Validate rejects EncodeChrome's output: %v\n%s", err, a)
	}
	for _, frag := range []string{`"name":"hand: recorded"`, `"ph":"s"`, `"bp":"e"`, `"pos":"4:2"`, `"partial":true,"depth":3`} {
		if !bytes.Contains(a, []byte(frag)) {
			t.Errorf("encoding lacks %s:\n%s", frag, a)
		}
	}
}

// TestValidateRejectsMalformed: each way a trace can break the shape
// EncodeChrome emits is an error.
func TestValidateRejectsMalformed(t *testing.T) {
	for name, data := range map[string]string{
		"not JSON":        `{"traceEvents":[`,
		"no array":        `{"events":[]}`,
		"no name":         `{"traceEvents":[{"ph":"X","ts":0,"pid":1}]}`,
		"empty name":      `{"traceEvents":[{"name":"","ph":"X","ts":0,"pid":1}]}`,
		"unknown phase":   `{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1}]}`,
		"negative ts":     `{"traceEvents":[{"name":"a","ph":"X","ts":-1,"pid":1}]}`,
		"zero pid":        `{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":0}]}`,
		"finish no bp":    `{"traceEvents":[{"name":"a","ph":"s","ts":0,"pid":1,"id":1},{"name":"a","ph":"f","ts":1,"pid":1,"id":1}]}`,
		"unpaired start":  `{"traceEvents":[{"name":"a","ph":"s","ts":0,"pid":1,"id":1}]}`,
		"unpaired finish": `{"traceEvents":[{"name":"a","ph":"f","ts":0,"pid":1,"id":2,"bp":"e"}]}`,
	} {
		if err := Validate([]byte(data)); err == nil {
			t.Errorf("%s: Validate accepted %s", name, data)
		}
	}
	if err := Validate([]byte(`{"traceEvents":[]}`)); err != nil {
		t.Errorf("empty trace rejected: %v", err)
	}
}

// TestRenderASCII pins the terminal view: one column per lane, one row
// per event, arrows tagged on their source row, long cells clipped.
func TestRenderASCII(t *testing.T) {
	tl := handTimeline()
	tl.Execs = append(tl.Execs, &Execution{Name: ExecSolved, Threads: 2, Partial: true, Depth: 2,
		Events: []Event{{Thread: 1, Time: 0, Label: "write g1@1", Pos: "12:34567890123"}}})
	var a, b strings.Builder
	RenderASCII(&a, tl)
	RenderASCII(&b, tl)
	if a.String() != b.String() {
		t.Fatalf("two renderings differ:\n%s\n%s", a.String(), b.String())
	}
	want := `== hand: recorded ==
      t0                    t1
    0 start
    1 spawn t1                                      ~spawn->t1
    2                       start
    3                       lock m0
    4                       write g2@5=7
    5                       unlock m0
    6                       exit                    ~join->t0
    7 join t1
    8 read g2@5=7
    9 wait-begin c1/m0
   10 spawn t3
   11 exit

== hand: solved (partial, depth 2) ==
      t0                    t1
    0                       write g1@1 @12:34...
`
	if a.String() != want {
		t.Errorf("RenderASCII =\n%s\nwant\n%s", a.String(), want)
	}
}

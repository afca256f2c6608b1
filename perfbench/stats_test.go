package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 100}); !near(g, 10) {
		t.Errorf("geomean(1,100) = %v, want 10", g)
	}
	if g := geomean([]float64{3000, 3000, 3000}); !near(g, 3000) {
		t.Errorf("geomean of equal values = %v, want 3000", g)
	}
	if g := geomean([]float64{4, 0}); !math.IsNaN(g) {
		t.Errorf("geomean with a zero = %v, want NaN", g)
	}
	if g := geomean(nil); !math.IsNaN(g) {
		t.Errorf("geomean() = %v, want NaN", g)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median(5,1,3) = %v, want 3", m)
	}
	if xs[0] != 5 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", m)
	}
}

func TestPerProgramMean(t *testing.T) {
	b := byProgram{}
	for _, v := range []float64{10, 30, 20} {
		b.add("fast", v)
	}
	b.add("slow", 3000)
	b.add("slow", 1000)
	// Programs come out in name order, one value each, however many
	// samples each has.
	if m := b.means(); len(m) != 2 || m[0] != 20 || m[1] != 2000 {
		t.Errorf("means = %v, want [20 2000]", m)
	}
	if s := b.meanSum(); s != 2020 {
		t.Errorf("meanSum = %v, want 2020", s)
	}
	// A bimodal program: the mean moves with the modes' shares, where the
	// median would jump from one mode to the other.
	bi := byProgram{}
	for _, v := range []float64{600, 600, 1500, 1500, 1500} {
		bi.add("racey", v)
	}
	if m := bi.means()[0]; m != 1140 {
		t.Errorf("bimodal mean = %v, want 1140", m)
	}
}

func TestSAPCharge(t *testing.T) {
	if c := sapCharge(true, 2, 80); c != 2 {
		t.Errorf("solved job charged %d, want its preemptions 2", c)
	}
	if c := sapCharge(false, 0, 80); c != 80 {
		t.Errorf("unsolved job charged %d, want its SAP count 80", c)
	}
	// Solving a job never raises the sum: a schedule over n SAPs has at
	// most n-1 preemptions.
	for saps := 1; saps < 50; saps++ {
		if sapCharge(true, saps-1, saps) >= sapCharge(false, 0, saps) {
			t.Fatalf("solving a %d-SAP job at its worst raised its charge", saps)
		}
	}
}

// TestMetricNames checks every reported name against the name pattern
// and that the run reports exactly the metrics BENCHMARK.json declares.
func TestMetricNames(t *testing.T) {
	one := runStats{jobs: []jobResult{{prog: "p", latency: time.Millisecond, solved: true}}, wall: time.Second, passes: 1}
	e2e := endToEnd(one, time.Second)
	layers := perLayer(one, one, newTracer())
	for _, got := range []map[string]metric{e2e, layers} {
		if err := checkNames(got); err != nil {
			t.Error(err)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		got      map[string]metric
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layers}} {
		if len(c.declared) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the run reports %d", c.what, len(c.declared), len(c.got))
		}
		for _, d := range c.declared {
			if m, ok := c.got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s [%s] declared, reported as %+v (present %v)", c.what, d.Name, d.Unit, m, ok)
			}
		}
	}
	for _, bad := range []string{"latency ms", "p50/ms", "", "_x", "ü"} {
		if err := checkNames(map[string]metric{bad: {}}); err == nil {
			t.Errorf("checkNames accepted %q", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "job", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, Name: "b", StartNs: 30, EndNs: 60}, // overlaps a
		{ID: 3, Parent: 2, Name: "c", StartNs: 35, EndNs: 45},
	}
	self := selfTimes(spans)
	want := []time.Duration{50, 30, 20, 10}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, self[i], w)
		}
	}
}

func TestPoolRotation(t *testing.T) {
	if m := (pool{0, 8}).member(0); m != 0 {
		t.Errorf("seed 0 starts at member %d, want 0 (the CLI's default hunt seed)", m)
	}
	for _, seed := range []int64{0, 5, 13, -3, 1 << 40} {
		pl := pool{seed, 8}
		seen := map[int]bool{}
		for p := 0; p < 8; p++ {
			m := pl.member(p)
			if m < 0 || m >= 8 {
				t.Fatalf("seed %d pass %d: member %d out of range", seed, p, m)
			}
			seen[m] = true
		}
		if len(seen) != 8 {
			t.Errorf("seed %d: 8 passes cover %d members, want all 8", seed, len(seen))
		}
	}
	if m := (pool{12345, 1}).member(7); m != 0 {
		t.Errorf("a one-member pool gave member %d", m)
	}
}

// metricName is the form every reported metric name must take.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames rejects a metric name that does not match metricName.
func checkNames(ms map[string]metric) error {
	for name := range ms {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q does not match %s", name, metricName)
		}
	}
	return nil
}

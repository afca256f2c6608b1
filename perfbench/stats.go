package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of strictly positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// byProgram collects one sample series per program name.
type byProgram map[string][]float64

func (b byProgram) add(prog string, v float64) { b[prog] = append(b[prog], v) }

// means returns each program's mean, in program-name order. The mean,
// not the median, is the per-program value: a program's latency can have
// two modes, as when a solver portfolio's race falls one way or the
// other, and a median jumps between the modes as their shares shift from
// run to run, where the mean moves with the shares.
func (b byProgram) means() []float64 {
	out := make([]float64, 0, len(b))
	for _, prog := range sortedKeys(b) {
		var sum float64
		for _, v := range b[prog] {
			sum += v
		}
		out = append(out, sum/float64(len(b[prog])))
	}
	return out
}

// meanSum sums the per-program means: the value of one pass over the
// programs, steady against the number of passes a run made.
func (b byProgram) meanSum() float64 {
	var s float64
	for _, m := range b.means() {
		s += m
	}
	return s
}

// sapCharge is the preemption count a job contributes to
// preemptions_sum. A solved job contributes its schedule's preemptions.
// An unsolved job is charged its SAP count: any schedule over n shared
// access points has at most n-1 preemptions, so the charge bounds every
// schedule the job could have found and solving a job never raises the
// sum.
func sapCharge(solved bool, preemptions, saps int) int {
	if solved {
		return preemptions
	}
	return saps
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

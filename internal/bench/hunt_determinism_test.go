package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
)

// huntGolden pins each benchmark's seed-0 bug hunt: the winning seed and
// the SHA-256 of the winning recording's framed log. A change to the VM,
// the scheduler or the hunt that alters any recording shows up here.
var huntGolden = map[string]struct {
	seed   int64
	sha256 string
}{
	"aget":     {0, "50812356b829f2d56de919616431168b97e1ef4017e24de5ab98706d15574306"},
	"apache":   {22, "4c2371dd049d7b7b7ae768a702c552806a6b2bc189a7828420508925eb119114"},
	"bakery":   {286, "35d3e63d9f21800560cb8a4cb63aa549488096354b68055bf353b872aae2d2c9"},
	"bbuf":     {54, "547c1f7863882bc68121847ae844722fdbde3d110a980f9d4980ee1949edcb2d"},
	"dekker":   {26, "ac251fa10bffbc6e07764b1a2a0bb8fed750e7becaffdc011eae2b45f9e15685"},
	"pbzip2":   {0, "e2a257d9863902a4bd635895146f2ad2c5f062378e9148a6608500ed8cfe5ed3"},
	"peterson": {32, "af249c7fdf421592939580934b2228b839dbebe9be906492fed4d593cd25516d"},
	"pfscan":   {7, "280ef774c0e09c60bab6addd14ad97a4dad5a8287fde901b40e7374301b0582d"},
	"racey":    {4, "be44175f06484e6fdaa3d7bdfce7298ddef89519d290f6483066e13b6e0e2276"},
	"sim_race": {1, "9dc45dece5f7b4efe5b661fc3f8fcd8a668a070d1db7c96af87e1a3a30c18e57"},
	"swarm":    {308, "649242da343bcf2a12c39bd86e7bc1f66fda9aa150e69b2146ff7b3b796e3a0f"},
}

// huntOutcome is everything a bug hunt decides that must not depend on
// how many workers ran it.
type huntOutcome struct {
	seed     int64
	chaos    int
	visible  int64
	framed   []byte
	levels   []core.LevelStats
	counters map[string]int64 // record.* counters
	noFail   *core.NoFailureError
}

// huntAt runs core.Record at the given GOMAXPROCS and collects its
// outcome: the winning recording, the per-level stats (from the
// record.level spans on success, from the error otherwise) and the
// record.* counters.
func huntAt(t *testing.T, procs int, prog string, opts core.RecordOptions) huntOutcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	p, err := core.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("hunt")
	opts.Obs = tr
	rec, err := core.Record(p, opts)
	var out huntOutcome
	if errors.As(err, &out.noFail) {
		out.levels = out.noFail.Levels
	} else if err != nil {
		t.Fatal(err)
	} else {
		out.seed, out.chaos, out.visible = rec.Seed, rec.Chaos, rec.Run.VisibleEvents
		out.framed = rec.Log.EncodeFramed(trace.FramedOptions{})
		for _, lsp := range tr.Root().Find("record").Children {
			var ls core.LevelStats
			if _, err := fmt.Sscan(lsp.Attr("chaos")+" "+lsp.Attr("seeds")+" "+lsp.Attr("livelocked")+" "+lsp.Attr("failures"),
				&ls.Chaos, &ls.Seeds, &ls.Livelocked, &ls.Failures); err != nil {
				t.Fatalf("record.level span attributes: %v", err)
			}
			out.levels = append(out.levels, ls)
		}
	}
	counters, gauges := tr.Reg().Snapshot()
	out.counters = map[string]int64{}
	for name, v := range counters {
		if strings.HasPrefix(name, "record.") {
			out.counters[name] = v
		}
	}
	if gauges["record.workers"] < 1 || gauges["record.workers"] > int64(procs) {
		t.Fatalf("record.workers = %d at GOMAXPROCS %d", gauges["record.workers"], procs)
	}
	return out
}

func sameHunt(t *testing.T, one, four huntOutcome) {
	t.Helper()
	if one.seed != four.seed || one.chaos != four.chaos || one.visible != four.visible {
		t.Errorf("winner differs: seed/chaos/SAPs %d/%d/%d at GOMAXPROCS 1, %d/%d/%d at 4",
			one.seed, one.chaos, one.visible, four.seed, four.chaos, four.visible)
	}
	if !bytes.Equal(one.framed, four.framed) {
		t.Error("framed logs differ between GOMAXPROCS 1 and 4")
	}
	if !slices.Equal(one.levels, four.levels) {
		t.Errorf("level stats differ: %v at GOMAXPROCS 1, %v at 4", one.levels, four.levels)
	}
	if !maps.Equal(one.counters, four.counters) {
		t.Errorf("record.* counters differ: %v at GOMAXPROCS 1, %v at 4", one.counters, four.counters)
	}
}

// TestHuntDeterminism: the bug hunt spreads seeds over GOMAXPROCS workers
// but commits them in serial order, so one worker and four produce the
// same recording, level stats and counters — and the recordings match
// the pinned seed-0 goldens.
func TestHuntDeterminism(t *testing.T) {
	for _, b := range All() {
		t.Run(b.Name, func(t *testing.T) {
			opts := core.RecordOptions{Model: b.Model, Inputs: b.Inputs, SeedLimit: b.SeedLimit}
			one := huntAt(t, 1, b.Source, opts)
			four := huntAt(t, 4, b.Source, opts)
			sameHunt(t, one, four)
			g, ok := huntGolden[b.Name]
			if !ok {
				t.Fatalf("no golden for %s", b.Name)
			}
			sum := sha256.Sum256(one.framed)
			if one.seed != g.seed || hex.EncodeToString(sum[:]) != g.sha256 {
				t.Errorf("seed-0 hunt: seed %d sha256 %x, golden seed %d sha256 %s", one.seed, sum, g.seed, g.sha256)
			}
		})
	}
	// A bug-free program exhausts every level: the NoFailureError path
	// commits all SeedLimit seeds per level at any worker count.
	t.Run("no-failure", func(t *testing.T) {
		const quiet = `
int x;
mutex m;
func worker() {
	lock(m);
	x = x + 1;
	unlock(m);
}
func main() {
	int h1 = spawn worker();
	int h2 = spawn worker();
	join(h1);
	join(h2);
	assert(x == 2, "never fires");
}
`
		opts := core.RecordOptions{Model: vm.TSO, Seed: 5, SeedLimit: 9}
		one := huntAt(t, 1, quiet, opts)
		four := huntAt(t, 4, quiet, opts)
		if one.noFail == nil || four.noFail == nil || one.noFail.Interrupted || four.noFail.Interrupted {
			t.Fatalf("want uninterrupted *NoFailureError at both, got %v and %v", one.noFail, four.noFail)
		}
		sameHunt(t, one, four)
		if one.noFail.Error() != four.noFail.Error() {
			t.Errorf("errors differ: %q vs %q", one.noFail, four.noFail)
		}
		for _, l := range one.levels {
			if l.Seeds != 9 {
				t.Errorf("level %d committed %d seeds, want all 9", l.Chaos, l.Seeds)
			}
		}
	})
}

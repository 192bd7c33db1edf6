package conform

import (
	"reflect"
	"sort"
	"testing"
)

// TestDegradedReseedAllocFree pins the lazy reseed: a by-design event fed
// to a degraded engine only marks the all-states frontier as pending, so
// a supervised restart costs no O(NumStates) rebuild while nothing reads
// the frontier.
func TestDegradedReseedAllocFree(t *testing.T) {
	e, err := newAdaptiveEngine(adaptiveCheck(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	// A retune re-holding the level-0 point saturates: degraded mode.
	if d, err := e.feed(0, Event{Time: 0, Label: labelRetune(2, 4)}); d != nil || err != nil {
		t.Fatalf("saturating retune: %v, %v", d, err)
	}
	restart := Event{Time: 0, Label: "p[1]: restart"}
	i := 1
	allocs := testing.AllocsPerRun(100, func() {
		if d, _ := e.feed(i, restart); d != nil {
			t.Fatalf("restart %d diverged: %q", i, d.label)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("a restart fed to a degraded engine allocates %v times, want 0", allocs)
	}
	if !e.degraded || !e.pendingAll || e.confirmed != i-1 {
		t.Fatalf("degraded=%v pendingAll=%v confirmed=%d, want true/true/%d",
			e.degraded, e.pendingAll, e.confirmed, i-1)
	}
}

// TestLevelChangeReseedReusesBuffers: once the checker's buffers have
// held each level's all-states frontier, a level change and the step that
// builds the new frontier allocate nothing.
func TestLevelChangeReseedReusesBuffers(t *testing.T) {
	e, err := newAdaptiveEngine(adaptiveCheck(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	round := []Event{
		{Time: 0, Label: labelRetune(2, 8)},
		{Time: 0, Label: labelDeliverToP0(1)},
		{Time: 0, Label: labelRetune(2, 4)},
		{Time: 0, Label: labelDeliverToP0(1)},
	}
	i := 0
	feedRound := func() {
		for _, ev := range round {
			if d, err := e.feed(i, ev); d != nil || err != nil {
				t.Fatalf("event %d %q: %v, %v", i, ev.Label, d, err)
			}
			i++
		}
	}
	feedRound() // sizes the buffers for both levels
	if allocs := testing.AllocsPerRun(20, feedRound); allocs != 0 {
		t.Fatalf("a round of level changes allocates %v times, want 0", allocs)
	}
	if e.retunes != 2*21+2 || e.saturations != 0 {
		t.Fatalf("retunes=%d saturations=%d, want %d/0", e.retunes, e.saturations, 2*21+2)
	}
}

// allStatesReference is the eager reference for a reseed: a checker whose
// frontier is every state of sp, built the obvious way.
func allStatesReference(sp *Spec) *checker {
	c := &checker{sp: sp, mark: make([]int32, sp.NumStates), cur: make([]int32, sp.NumStates)}
	for s := range c.cur {
		c.cur[s] = int32(s)
	}
	return c
}

func sortedStates(set []int32) []int32 {
	out := append([]int32(nil), set...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestPendingReseedMatchesEager: whatever first reads a pending all-states
// frontier — a label step, a tick step, or the Expected list of an
// out-of-envelope retune — must see exactly what the eager all-states
// frontier of the level in force gives, after a level change, a by-design
// event, and a by-design event in degraded mode.
func TestPendingReseedMatchesEager(t *testing.T) {
	check := adaptiveCheck(t)
	beat := labelDeliverToP0(1)
	cases := []struct {
		name     string
		prefix   []string
		level    int
		degraded bool
	}{
		{"level change", []string{labelRetune(2, 8)}, 1, false},
		{"by-design", []string{"p[1]: restart"}, 0, false},
		{"degraded by-design", []string{labelRetune(2, 4), "p[1]: restart"}, 0, true},
		{"degraded then level change", []string{labelRetune(2, 4), "p[1]: restart", labelRetune(2, 8)}, 1, false},
		// Reseeds into buffers an earlier all-states frontier left behind.
		{"second by-design", []string{"p[1]: restart", beat, "p[1]: restart"}, 0, false},
		{"level change after a step", []string{"p[1]: restart", beat, labelRetune(2, 8)}, 1, false},
	}
	probes := []struct {
		name  string
		steps bool // the probe steps the frontier (impossible while degraded)
		run   func(t *testing.T, e *streamEngine, ref *checker, idx int)
	}{
		{"label step", true, func(t *testing.T, e *streamEngine, ref *checker, idx int) {
			if !ref.step(ref.sp.labelIDs[beat]) {
				t.Fatalf("no state of the spec takes %q", beat)
			}
			if d, err := e.feed(idx, Event{Time: 0, Label: beat}); d != nil || err != nil {
				t.Fatalf("engine refused %q: %v, %v", beat, d, err)
			}
			if got, want := sortedStates(e.ck.cur), sortedStates(ref.cur); !reflect.DeepEqual(got, want) {
				t.Fatalf("frontier after %q: %d states, eager reference %d", beat, len(got), len(want))
			}
		}},
		{"tick step", true, func(t *testing.T, e *streamEngine, ref *checker, idx int) {
			if !ref.step(ref.sp.tickID) {
				t.Fatal("no state of the spec lets time pass")
			}
			if d := e.advance(1, idx); d != nil {
				t.Fatalf("engine refused a tick: %v", d.expected)
			}
			if got, want := sortedStates(e.ck.cur), sortedStates(ref.cur); !reflect.DeepEqual(got, want) {
				t.Fatalf("frontier after a tick: %d states, eager reference %d", len(got), len(want))
			}
		}},
		{"out-of-envelope expected", false, func(t *testing.T, e *streamEngine, ref *checker, idx int) {
			d, err := e.feed(idx, Event{Time: 0, Label: labelRetune(3, 5)})
			if err != nil || d == nil {
				t.Fatalf("out-of-envelope retune confirmed: %v, %v", d, err)
			}
			// enabled() sorts and dedupes, so slice equality is set equality.
			if want := ref.enabled(); !reflect.DeepEqual(d.expected, want) {
				t.Fatalf("Expected = %v, eager reference %v", d.expected, want)
			}
		}},
	}
	for _, tc := range cases {
		for _, probe := range probes {
			if probe.steps && tc.degraded {
				continue
			}
			t.Run(tc.name+"/"+probe.name, func(t *testing.T) {
				e, err := newAdaptiveEngine(check, 0)
				if err != nil {
					t.Fatal(err)
				}
				for i, label := range tc.prefix {
					if d, err := e.feed(i, Event{Time: 0, Label: label}); d != nil || err != nil {
						t.Fatalf("prefix event %q: %v, %v", label, d, err)
					}
				}
				if !e.pendingAll || e.level != tc.level || e.degraded != tc.degraded {
					t.Fatalf("after prefix: pendingAll=%v level=%d degraded=%v, want true/%d/%v",
						e.pendingAll, e.level, e.degraded, tc.level, tc.degraded)
				}
				sp, err := check.SpecAt(tc.level)
				if err != nil {
					t.Fatal(err)
				}
				probe.run(t, e, allStatesReference(sp), len(tc.prefix))
				if e.pendingAll {
					t.Fatal("the probe read the frontier without building it")
				}
			})
		}
	}
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/mc"
	"repro/internal/models"
)

// The verify workload runs the analysis stack in two shapes of the same
// BFS layer: the cell-parallel tables (many small checks that fit in
// cache) and one large check whose packed store far exceeds cache and
// whose BFS runs on every worker. The inputs are the paper's fixed
// configurations and model checking has no randomness, so the seed
// changes nothing here; it is accepted like every workload's.

// tableRow is one protocol row of a paper table: the R1/R2/R3 verdicts
// over tmin = 1, 4, 5, 9, 10 at tmax = 10, as bench_test.go pins them.
type tableRow struct {
	variant models.Variant
	want    [5]string
}

var verifyTables = []struct {
	name string
	spec models.TableSpec
	rows []tableRow
}{
	{"table1-binary-family", models.TableSpec{
		Variants: []models.Variant{models.Binary, models.RevisedBinary, models.TwoPhase},
		TMins:    models.DefaultTMins(), TMax: 10, N: 1,
	}, []tableRow{
		{models.Binary, [5]string{"FTT", "FTT", "FTT", "TTT", "TFF"}},
		{models.RevisedBinary, [5]string{"FTT", "FTT", "FTT", "TTT", "TFF"}},
		{models.TwoPhase, [5]string{"FTT", "FTT", "FTT", "FTT", "TFF"}},
	}},
	{"table2", models.TableSpec{
		Variants: []models.Variant{models.Expanding, models.Dynamic},
		TMins:    models.DefaultTMins(), TMax: 10, N: 1,
	}, []tableRow{
		{models.Expanding, [5]string{"FTT", "FTT", "FFT", "TFT", "TFF"}},
		{models.Dynamic, [5]string{"FTT", "FTT", "FFT", "TFT", "TFF"}},
	}},
}

// The large check: static, two participants, tmin 9, tmax 10, R1.
var bigCheck = models.Config{TMin: 9, TMax: 10, Variant: models.Static, N: 2}

const (
	bigProp   = models.R1
	bigStates = 1_848_466 // pinned: the count at any worker count
)

// verifyIteration is one pass over both tables and the large check.
type verifyIteration struct {
	cells       [][]models.Cell // per table
	bigStates   int
	bigTrans    int
	bigVerdict  bool
	states      int
	transitions int
}

func runVerifyIteration(e env) (*verifyIteration, error) {
	it := &verifyIteration{cells: make([][]models.Cell, len(verifyTables))}
	// Each part starts from a collected heap, so that the collections
	// inside it, and with them the peak live heap, repeat run to run.
	runtime.GC()
	for i, t := range verifyTables {
		spec := t.spec
		spec.Workers = e.workers
		cells, err := models.RunTable(spec)
		if err != nil {
			return nil, err
		}
		it.cells[i] = cells
	}
	runtime.GC()
	v, err := models.Verify(bigCheck, bigProp, mc.Options{Workers: e.workers})
	if err != nil {
		return nil, err
	}
	it.bigStates, it.bigTrans, it.bigVerdict = v.Result.StatesExplored, v.Result.TransitionsExplored, v.Satisfied
	it.states, it.transitions = it.bigStates, it.bigTrans
	for _, cells := range it.cells {
		for _, c := range cells {
			it.states += c.Verdict.Result.StatesExplored
			it.transitions += c.Verdict.Result.TransitionsExplored
		}
	}
	return it, nil
}

// cellKey identifies a table cell for count comparison.
type cellKey struct {
	table   int
	variant models.Variant
	tmin    int32
	prop    models.Property
}

func cellCounts(it *verifyIteration) map[cellKey][2]int {
	m := map[cellKey][2]int{}
	for ti, cells := range it.cells {
		for _, c := range cells {
			m[cellKey{ti, c.Variant, c.TMin, c.Prop}] = [2]int{c.Verdict.Result.StatesExplored, c.Verdict.Result.TransitionsExplored}
		}
	}
	return m
}

// buildVerifyModels builds every model the workload checks, which is its
// set-up: the tables and the large check build theirs again inside the
// timed calls, so this measures the model-construction layer alone.
func buildVerifyModels() (int, error) {
	n := 0
	for _, t := range verifyTables {
		for _, v := range t.spec.Variants {
			for _, tmin := range t.spec.TMins {
				if _, err := models.Build(models.Config{TMin: tmin, TMax: t.spec.TMax, Variant: v, N: t.spec.N}); err != nil {
					return 0, err
				}
				n++
			}
		}
	}
	if _, err := models.Build(bigCheck); err != nil {
		return 0, err
	}
	return n + 1, nil
}

func runVerify(e env) (*outcome, error) {
	// The peak heap is the large check's store, one check at a time, so
	// the largest value the collections marked is the one that repeats.
	out := &outcome{opName: "state", layers: newLayers(), heapPct: 100}
	nModels, err := timeSetup(out, 45, buildVerifyModels)
	if err != nil {
		return nil, err
	}
	out.input = map[string]any{
		"tables":      "Table 1 binary family and Table 2, N=1, tmax=10, tmin in {1,4,5,9,10}, R1-R3",
		"big_check":   fmt.Sprintf("static N=2 tmin=9 tmax=10 %v, %d states", bigProp, bigStates),
		"workers":     e.workers,
		"cell_models": nModels - 1,
		"loop":        "closed",
	}
	seconds := e.seconds
	if e.trace {
		seconds /= 2
	}
	// One untimed iteration first, so that the timed ones all run on a
	// heap already grown to the large check's size.
	if _, err := runVerifyIteration(e); err != nil {
		return nil, err
	}
	deadline := wallNow().Add(time.Duration(seconds * float64(time.Second)))

	w := startWindow()
	g0 := readGoStats()
	var iters []*verifyIteration
	var rates []float64
	for k := 0; k == 0 || wallNow().Before(deadline); k++ {
		t0 := wallNow()
		it, err := runVerifyIteration(e)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(it.states)/wallSince(t0).Seconds())
		iters = append(iters, it)
		out.ops += int64(it.states)
	}
	g1 := readGoStats()
	w.stop(out)

	// Output checks, after the window: every verdict against the paper
	// row, the large check against its pinned count and verdict, and
	// every cell's counts against the same table run on one worker.
	serial := &verifyIteration{cells: make([][]models.Cell, len(verifyTables))}
	for i, t := range verifyTables {
		spec := t.spec
		spec.Workers = 1
		cells, err := models.RunTable(spec)
		if err != nil {
			return nil, err
		}
		serial.cells[i] = cells
	}
	ref := cellCounts(serial)
	for _, it := range iters {
		for ti, t := range verifyTables {
			for _, row := range t.rows {
				for i, tmin := range t.spec.TMins {
					got := models.VerdictString(it.cells[ti], row.variant, tmin)
					out.check(got == row.want[i], "%s %v tmin=%d: verdicts %q, want %q", t.name, row.variant, tmin, got, row.want[i])
				}
			}
		}
		for k, c := range cellCounts(it) {
			out.check(c == ref[k], "%s %v tmin=%d %v: %v states/transitions at %d workers, %v at 1",
				verifyTables[k.table].name, k.variant, k.tmin, k.prop, c, e.workers, ref[k])
		}
		out.check(it.bigStates == bigStates && it.bigVerdict,
			"large check: %d states (want %d), satisfied=%v", it.bigStates, bigStates, it.bigVerdict)
	}

	out.report = []summary{
		summarise("states_per_s", "1/s", rates),
		summarise("setup_s", "s", out.setup),
		one("peak_heap_mb", "MB", float64(out.peakHeap)/(1<<20)),
	}
	if !e.trace {
		return out, nil
	}
	untracedRate := float64(out.ops) / out.wall.Seconds()
	if err := traceVerify(e, out, untracedRate); err != nil {
		return nil, err
	}
	addGoLayers(out.layers, g0, g1, out.ops)
	return out, nil
}

// traceVerify is the traced half: the same iterations with a span around
// each part, then each layer alone — model build, every table cell as a
// serial check, the large check at one worker and at all of them, and the
// successor-plus-store pass with no goal.
func traceVerify(e env, out *outcome, untracedRate float64) error {
	tr := newTracer()
	l := out.layers
	deadline := wallNow().Add(time.Duration(e.seconds / 2 * float64(time.Second)))
	start := wallNow()
	var states int64
	for k := 0; k == 0 || wallNow().Before(deadline); k++ {
		tt := tr.trial(int64(k))
		root := tt.begin("verify.iteration", -1)
		it, err := runVerifyIteration(e)
		if err != nil {
			return err
		}
		tt.end(root)
		tt.finish()
		states += int64(it.states)
		if k == 0 {
			l["mc.states"] = float64(it.states)
			l["mc.transitions"] = float64(it.transitions)
			n := 0
			for _, cells := range it.cells {
				n += len(cells)
			}
			l["mc.cells"] = float64(n)
		}
	}
	l["trace.overhead_pct"] = overheadPct(untracedRate, float64(states)/wallSince(start).Seconds())

	// Each table cell alone: model build, then a serial check.
	tt := tr.trial(-1)
	var buildNS, checkNS int64
	var builds, cellStates int
	for _, t := range verifyTables {
		for _, v := range t.spec.Variants {
			for _, tmin := range t.spec.TMins {
				cfg := models.Config{TMin: tmin, TMax: t.spec.TMax, Variant: v, N: t.spec.N}
				for _, prop := range []models.Property{models.R1, models.R2, models.R3} {
					b := tt.begin("models.build", -1)
					m, err := models.Build(cfg)
					if err != nil {
						return err
					}
					tt.end(b)
					c := tt.begin("mc.check", -1)
					verdict, err := m.Verify(prop, mc.Options{Workers: 1})
					if err != nil {
						return err
					}
					tt.end(c)
					buildNS += tt.spans[b].Dur
					checkNS += tt.spans[c].Dur
					builds++
					cellStates += verdict.Result.StatesExplored
				}
			}
		}
	}
	l["models.build_ns"] = float64(buildNS) / float64(builds)
	l["mc.check_ns_per_state"] = float64(checkNS) / float64(cellStates)

	m, err := models.Build(bigCheck)
	if err != nil {
		return err
	}
	timeBig := func(name string, workers int) (float64, uint64, error) {
		s := tt.begin(name, -1)
		m0 := mallocs()
		v, err := m.Verify(bigProp, mc.Options{Workers: workers})
		m1 := mallocs()
		tt.end(s)
		if err != nil {
			return 0, 0, err
		}
		out.check(v.Result.StatesExplored == bigStates && v.Satisfied,
			"large check at %d workers: %d states (want %d), satisfied=%v", workers, v.Result.StatesExplored, bigStates, v.Satisfied)
		return float64(tt.spans[s].Dur) / float64(bigStates), m1 - m0, nil
	}
	par, _, err := timeBig("mc.big", e.workers)
	if err != nil {
		return err
	}
	ser, allocs, err := timeBig("mc.big_serial", 1)
	if err != nil {
		return err
	}
	l["mc.big_ns_per_state"] = par
	l["mc.big_serial_ns_per_state"] = ser
	l["mc.parallel_speedup"] = ser / par
	l["mc.allocs_per_state"] = float64(allocs) / float64(bigStates)

	cs := tt.begin("mc.count_states", -1)
	n, _, err := mc.CountStates(m.Net, mc.Options{Workers: e.workers})
	tt.end(cs)
	if err != nil {
		return err
	}
	out.check(n == bigStates, "large check without a goal: %d states, want %d", n, bigStates)
	l["mc.count_ns_per_state"] = float64(tt.spans[cs].Dur) / float64(n)
	tt.finish()
	return tr.write("verify", e.seed)
}

package conform

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"math/rand"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/netem"
	"repro/internal/sim"
)

// streamAll replays a trace through a fresh StreamChecker one event at a
// time and finishes it, mirroring what a live cluster's observer does.
func streamAll(t *testing.T, cfg StreamConfig, events []Event, lost uint64) *StreamResult {
	t.Helper()
	sc, err := NewStreamChecker(cfg)
	if err != nil {
		t.Fatalf("NewStreamChecker: %v", err)
	}
	for _, ev := range events {
		sc.Feed(ev)
	}
	res, err := sc.Finish(lost)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return res
}

// requireSameDivergence checks a streaming incident against the offline
// divergence of the same trace: same location, same diagnosis, and a
// byte-identical rendered report.
func requireSameDivergence(t *testing.T, d *Divergence, inc *Incident, events []Event) {
	t.Helper()
	if (d == nil) != (inc == nil) {
		t.Fatalf("offline divergence %v vs streaming incident %v", d, inc)
	}
	if d == nil {
		return
	}
	if inc.Kind != IncidentDivergence {
		t.Fatalf("incident kind = %v", inc.Kind)
	}
	if inc.Seq != d.Index || inc.Time != d.Time || inc.Label != d.Label ||
		!reflect.DeepEqual(inc.Expected, d.Expected) {
		t.Fatalf("incident (seq=%d t=%d %q %v) != divergence (index=%d t=%d %q %v)",
			inc.Seq, inc.Time, inc.Label, inc.Expected, d.Index, d.Time, d.Label, d.Expected)
	}
	var off, on strings.Builder
	if err := d.Render(&off, "report"); err != nil {
		t.Fatal(err)
	}
	if err := inc.Render(&on, "report"); err != nil {
		t.Fatal(err)
	}
	if off.String() != on.String() {
		t.Fatalf("rendered reports differ:\n--- offline ---\n%s\n--- streaming ---\n%s", off.String(), on.String())
	}
}

// walkDiff is one walk's comparison summary; identical across worker
// counts by the determinism contract.
type walkDiff struct {
	variant  models.Variant
	walk     int
	events   int
	diverged bool
}

// TestStreamDifferential is the corpus differential: every variant's
// random-walk corpus, replayed event by event through the StreamChecker,
// must produce verdicts and first-divergence reports identical to offline
// CheckTrace/EvaluateTrace on the recorded trace — at 1 worker and at 8.
func TestStreamDifferential(t *testing.T) {
	const walksPerVariant = 6
	variants := []models.Variant{
		models.Binary, models.RevisedBinary, models.TwoPhase,
		models.Static, models.Expanding, models.Dynamic,
	}
	// One CampaignCheck per model config: streaming and offline share the
	// same cached spec, and concurrent walks share one build.
	var (
		checksMu sync.Mutex
		checks   = map[models.Config]*CampaignCheck{}
	)
	checkFor := func(m models.Config) *CampaignCheck {
		checksMu.Lock()
		defer checksMu.Unlock()
		c, ok := checks[m]
		if !ok {
			c = &CampaignCheck{Model: m}
			checks[m] = c
		}
		return c
	}

	runWalk := func(t *testing.T, variant models.Variant, w int) walkDiff {
		rng := rand.New(rand.NewSource(23 + int64(w)*0x9e3779b97f4a7c))
		rc := walkRun(variant, rng)
		check := checkFor(rc.Model)
		sp, err := check.Spec()
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		out, err := Run(rc)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		div := sp.CheckTrace(out.Events, rc.Horizon)
		tv := EvaluateTrace(rc.Model, out.Events, out.Lost, rc.Horizon)

		sres := streamAll(t, StreamConfig{Check: check, Horizon: rc.Horizon}, out.Events, out.Lost)
		if sres.Events != len(out.Events) {
			t.Fatalf("stream consumed %d events, trace has %d", sres.Events, len(out.Events))
		}
		requireSameDivergence(t, div, sres.Unconfirmed, out.Events)
		if !reflect.DeepEqual(sres.Verdicts, tv) {
			t.Fatalf("verdicts differ:\n  stream:  %+v\n  offline: %+v", sres.Verdicts, tv)
		}
		return walkDiff{variant: variant, walk: w, events: len(out.Events), diverged: div != nil}
	}

	corpus := func(t *testing.T, workers int) []walkDiff {
		type job struct {
			variant models.Variant
			walk    int
		}
		var jobs []job
		for _, v := range variants {
			for w := 0; w < walksPerVariant; w++ {
				jobs = append(jobs, job{v, w})
			}
		}
		outs := make([]walkDiff, len(jobs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					outs[i] = runWalk(t, jobs[i].variant, jobs[i].walk)
				}
			}()
		}
		wg.Wait()
		return outs
	}

	seq := corpus(t, 1)
	par := corpus(t, 8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("worker count changed the corpus outcome:\n  1: %+v\n  8: %+v", seq, par)
	}
	total := 0
	for _, d := range seq {
		total += d.events
		if d.diverged {
			t.Fatalf("healthy walk diverged: %+v", d)
		}
	}
	if total == 0 {
		t.Fatal("corpus recorded no events")
	}
}

// adaptiveClusterTrace records one real adaptive cluster run (Gilbert-
// Elliott loss driving the coordinator through its envelope) and returns
// the trace and its loss count.
func adaptiveClusterTrace(t *testing.T, check *CampaignCheck, seed int64, horizon core.Tick) ([]Event, uint64) {
	t.Helper()
	rec := NewRecorder()
	lost := adaptiveClusterRun(t, check, seed, horizon, rec)
	return rec.Events(), lost
}

// adaptiveClusterRun drives that run with obs attached and returns its
// loss count.
func adaptiveClusterRun(t *testing.T, check *CampaignCheck, seed int64, horizon core.Tick, obs detector.Observer) uint64 {
	t.Helper()
	cc, err := ClusterFor(check.Model)
	if err != nil {
		t.Fatal(err)
	}
	env := check.Envelope
	cc.Adaptive = &core.AdaptiveOptions{
		Envelope: core.Envelope{
			TMinLo: core.Tick(env.TMinLo), TMinHi: core.Tick(env.TMinHi),
			TMaxLo: core.Tick(env.TMaxLo), TMaxHi: core.Tick(env.TMaxHi),
		},
		Window: 2, WidenAt: 0.25, TightenAt: 0.1, HoldRounds: 4,
	}
	cc.Seed = seed
	cc.Faults = &faults.Schedule{
		Seed: seed,
		Events: []faults.Event{
			{At: 100, Kind: faults.KindLoss, AllLinks: true, GE: &faults.GilbertElliott{
				PGoodBad: 0.3, PBadGood: 0.4, LossGood: 0, LossBad: 0.9,
			}},
		},
	}
	cc.Observe = obs
	c, err := detector.NewCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.Sim.RunUntil(sim.Time(horizon))
	c.Stop()
	lost := c.Net.Stats().Total.Lost
	if c.Faults != nil {
		fs := c.Faults.Stats()
		lost += fs.DroppedMuted + fs.DroppedPartition + fs.DroppedLoss
	}
	return lost
}

// TestStreamAdaptiveDifferential: real adaptive runs — retunes included —
// checked piecewise online must match CheckTraceAdaptive on the recorded
// trace, counter for counter, and the R1–R3 verdicts must match
// EvaluateTrace at the envelope ceiling (the StreamChecker's monitor
// configuration).
func TestStreamAdaptiveDifferential(t *testing.T) {
	env := models.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 8}
	check := &CampaignCheck{
		Model:    models.Config{TMin: 2, TMax: 4, Variant: models.Static, N: 2, Fixed: true},
		Envelope: &env,
	}
	const horizon = core.Tick(1200)
	monCfg := env.LevelConfig(check.Model, env.Levels()-1)

	totalRetunes := 0
	for seed := int64(1); seed <= 6; seed++ {
		events, lost := adaptiveClusterTrace(t, check, seed, horizon)
		pr, err := check.CheckTraceAdaptive(events, horizon)
		if err != nil {
			t.Fatalf("seed %d: CheckTraceAdaptive: %v", seed, err)
		}
		if pr.Unconfirmed != nil {
			t.Fatalf("seed %d: healthy adaptive run diverged: %v", seed, pr.Unconfirmed)
		}
		sres := streamAll(t, StreamConfig{Check: check, Horizon: horizon}, events, lost)
		requireSameDivergence(t, pr.Unconfirmed, sres.Unconfirmed, events)
		if sres.Confirmed != pr.Confirmed || sres.Degraded != pr.Degraded ||
			sres.Retunes != pr.Retunes || sres.Saturations != pr.Saturations ||
			sres.FinalLevel != pr.FinalLevel {
			t.Fatalf("seed %d: piecewise counters differ:\n  stream:  %+v\n  offline: %+v", seed, sres, pr)
		}
		tv := EvaluateTrace(monCfg, events, lost, horizon)
		if !reflect.DeepEqual(sres.Verdicts, tv) {
			t.Fatalf("seed %d: verdicts differ:\n  stream:  %+v\n  offline: %+v", seed, sres.Verdicts, tv)
		}
		totalRetunes += sres.Retunes
	}
	if totalRetunes == 0 {
		t.Fatal("no seed drove the coordinator through a retune — the piecewise path was never exercised")
	}
}

// TestRunStreamMatchesFeed: attaching the checker as a live observer
// (abstracting machine steps as they happen) is equivalent to feeding the
// recorded trace of the same run.
func TestRunStreamMatchesFeed(t *testing.T) {
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	check := &CampaignCheck{Model: model}
	rc := RunConfig{
		Model: model,
		Seed:  3,
		Schedule: &faults.Schedule{Events: []faults.Event{
			{At: 9, Kind: faults.KindCrash, Node: 1},
		}},
		Horizon: 30,
	}
	out, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	fed := streamAll(t, StreamConfig{Check: check, Horizon: rc.Horizon}, out.Events, out.Lost)

	live, err := NewStreamChecker(StreamConfig{Check: check, Horizon: rc.Horizon})
	if err != nil {
		t.Fatal(err)
	}
	lres, err := RunStream(rc, live)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lres, fed) {
		t.Fatalf("live observation and replay differ:\n  live: %+v\n  fed:  %+v", lres, fed)
	}
	if lres.Events != len(out.Events) {
		t.Fatalf("live stream saw %d events, recorder saw %d", lres.Events, len(out.Events))
	}
}

// streamEarliest replays a mutant trace one event at a time and returns
// the feed index at which the first divergence incident fired.
func streamEarliest(t *testing.T, check *CampaignCheck, events []Event, horizon core.Tick) (*Incident, int) {
	t.Helper()
	firedAt := -1
	feeding := -1
	cfg := StreamConfig{Check: check, Horizon: horizon, OnIncident: func(inc *Incident) {
		if inc.Kind == IncidentDivergence && firedAt == -1 {
			firedAt = feeding
		}
	}}
	sc, err := NewStreamChecker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		feeding = i
		sc.Feed(ev)
	}
	feeding = len(events)
	res, err := sc.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconfirmed == nil {
		t.Fatal("mutant not caught by the stream checker")
	}
	return res.Unconfirmed, firedAt
}

// TestStreamMutantExpiryEarliest ports the expiry+1 mutation to the
// streaming path: the stuck-time divergence must fire at the earliest
// possible event — exactly where offline replay locates it — not at
// teardown.
func TestStreamMutantExpiryEarliest(t *testing.T) {
	wrap, err := Mutation("expiry+1")
	if err != nil {
		t.Fatal(err)
	}
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	check := &CampaignCheck{Model: model}
	rc := RunConfig{
		Model: model,
		Seed:  3,
		Schedule: &faults.Schedule{Events: []faults.Event{
			{At: 9, Kind: faults.KindCrash, Node: 0},
		}},
		Horizon: 30,
		Wrap:    wrap,
	}
	sp, err := check.Spec()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	d := sp.CheckTrace(out.Events, rc.Horizon)
	if d == nil {
		t.Fatal("offline replay missed the mutant")
	}
	if d.Label != LabelTick {
		t.Fatalf("expected a stuck-time divergence, got %q", d.Label)
	}
	inc, firedAt := streamEarliest(t, check, out.Events, rc.Horizon)
	if firedAt != d.Index {
		t.Fatalf("incident fired while feeding event %d, earliest possible is %d", firedAt, d.Index)
	}
	requireSameDivergence(t, d, inc, out.Events)
}

// TestStreamMutantRoundEarliest: the round-1 mutation's forbidden
// "timeout p[0]" is flagged the moment that event streams in.
func TestStreamMutantRoundEarliest(t *testing.T) {
	wrap, err := Mutation("round-1")
	if err != nil {
		t.Fatal(err)
	}
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	check := &CampaignCheck{Model: model}
	rc := RunConfig{Model: model, Seed: 3, Horizon: 20, Wrap: wrap}
	sp, err := check.Spec()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	d := sp.CheckTrace(out.Events, rc.Horizon)
	if d == nil {
		t.Fatal("offline replay missed the mutant")
	}
	inc, firedAt := streamEarliest(t, check, out.Events, rc.Horizon)
	if firedAt != d.Index {
		t.Fatalf("incident fired while feeding event %d, earliest possible is %d", firedAt, d.Index)
	}
	requireSameDivergence(t, d, inc, out.Events)
}

// TestStreamFrontierBudget pins the memory-budget degradation contract: a
// budget at the trace's high-water frontier width changes nothing; a
// budget below it sheds the inclusion check — monitor still live, no
// fabricated divergence — instead of growing the frontier.
func TestStreamFrontierBudget(t *testing.T) {
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Binary, N: 1, Fixed: true}
	check := &CampaignCheck{Model: model}
	rc := RunConfig{Model: model, Seed: 5, Horizon: 40}
	out, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	tv := EvaluateTrace(model, out.Events, out.Lost, rc.Horizon)

	base := streamAll(t, StreamConfig{Check: check, Horizon: rc.Horizon}, out.Events, out.Lost)
	if base.Shed || base.Unconfirmed != nil {
		t.Fatalf("unbudgeted healthy run degraded: %+v", base)
	}
	high := base.MaxFrontierSeen
	if high < 2 {
		t.Fatalf("trace never widened the frontier (high water %d); pick a richer run", high)
	}

	within := streamAll(t, StreamConfig{Check: check, Horizon: rc.Horizon, MaxFrontier: high}, out.Events, out.Lost)
	if within.Shed || within.ShedEvents != 0 || within.Unconfirmed != nil {
		t.Fatalf("budget at the high-water mark degraded the check: %+v", within)
	}
	if within.MaxFrontierSeen != high {
		t.Fatalf("high water changed under an inert budget: %d vs %d", within.MaxFrontierSeen, high)
	}

	shed := streamAll(t, StreamConfig{Check: check, Horizon: rc.Horizon, MaxFrontier: 1}, out.Events, out.Lost)
	if !shed.Shed {
		t.Fatal("budget of 1 did not shed")
	}
	if shed.Unconfirmed != nil {
		t.Fatalf("shedding fabricated a divergence: %v", shed.Unconfirmed)
	}
	if shed.ShedEvents == 0 {
		t.Fatal("shed run skipped no events")
	}
	// The R1–R3 monitor is independent of the frontier budget.
	if !reflect.DeepEqual(shed.Verdicts, tv) {
		t.Fatalf("shedding changed the verdicts: %+v vs %+v", shed.Verdicts, tv)
	}
}

// TestStreamMillionEventAllocFree pins bounded memory the hard way: one
// million generated events through a saturated (degraded) piecewise
// checker, with the incident tail ring and the R1–R3 monitor live, must
// allocate nothing per event in steady state — the checker's footprint
// does not grow with the stream.
func TestStreamMillionEventAllocFree(t *testing.T) {
	env := models.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 8}
	check := &CampaignCheck{
		Model:    models.Config{TMin: 2, TMax: 4, Variant: models.Static, N: 1, Fixed: true},
		Envelope: &env,
	}
	sc, err := NewStreamChecker(StreamConfig{Check: check, Horizon: core.Tick(1) << 40})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate: a retune re-holding the level-0 point enters degraded
	// mode, the sampled-observer regime whose per-event cost must be flat.
	sc.Feed(Event{Time: 0, Label: labelRetune(2, 4)})

	const events = 1 << 20
	now := core.Tick(0)
	beat := labelDeliverToP0(1)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < events; i++ {
			now++
			label := "p[1]: frobnicate"
			if i%2 == 0 {
				label = beat
			}
			sc.Feed(Event{Time: now, Label: label})
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state feed allocates %v per 2^20 events, want 0", allocs)
	}
	res, err := sc.Finish(1) // lossy: R2/R3 vacuous
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconfirmed != nil {
		t.Fatalf("degraded stream diverged: %v", res.Unconfirmed)
	}
	if res.Events < 2*events {
		t.Fatalf("stream consumed %d events, want >= %d", res.Events, 2*events)
	}
	if res.MaxFrontierSeen == 0 {
		t.Fatal("frontier high water was never tracked")
	}
}

// machineStep is one captured detector.Observer callback.
type machineStep struct {
	id      netem.NodeID
	now     core.Tick
	tr      detector.Trigger
	actions []core.Action
}

type stepCapture struct{ steps []machineStep }

func (c *stepCapture) ObserveStep(id netem.NodeID, now core.Tick, tr detector.Trigger, actions []core.Action) {
	c.steps = append(c.steps, machineStep{id, now, tr, append([]core.Action(nil), actions...)})
}

// TestObserveStepAllocFree extends the allocation-free claim from Feed to
// the live observer path: replaying a real adaptive run's machine steps
// through StreamChecker.ObserveStep, every step that records no incident
// or R1–R3 violation candidate allocates nothing — beat deliveries, round timers, replies,
// inactivations and in-envelope retunes included — and abstracts to the
// same labels the Recorder's on-demand formatting produces.
func TestObserveStepAllocFree(t *testing.T) {
	env := models.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 8}
	check := &CampaignCheck{
		Model:    models.Config{TMin: 2, TMax: 4, Variant: models.Static, N: 2, Fixed: true},
		Envelope: &env,
	}
	const horizon = core.Tick(1200)
	pinned := map[string]string{
		"beat delivery":      "deliver beat to p[0] from ",
		"round timer":        labelTimeoutP0,
		"reply":              labelSendBeat(1),
		"inactivate":         "inactivate nv ",
		"in-envelope retune": retunePrefix,
	}
	seen := map[string]int{}
	for seed := int64(1); seed <= 3; seed++ {
		var capt stepCapture
		lost := adaptiveClusterRun(t, check, seed, horizon, &capt)
		sc, err := NewStreamChecker(StreamConfig{Check: check, Horizon: horizon})
		if err != nil {
			t.Fatal(err)
		}
		// Size the frontier buffers for the largest level up front, so a
		// frontier reaching a new width cannot allocate: what is measured
		// is the observer path, not buffer growth.
		largest := 0
		for level := 0; level < env.Levels(); level++ {
			sp, err := check.SpecAt(level)
			if err != nil {
				t.Fatal(err)
			}
			largest = max(largest, sp.NumStates)
		}
		ck := sc.eng.frontier()
		ck.mark = append(make([]int32, 0, largest), ck.mark...)
		ck.cur = append(make([]int32, 0, largest), ck.cur...)
		ck.next = make([]int32, 0, largest)

		for _, st := range capt.steps {
			var table, formatted []string
			abstractStep(func(l string) { table = append(table, l) }, sc.labels, st.id, st.tr, st.actions)
			abstractStep(func(l string) { formatted = append(formatted, l) }, &noLabels, st.id, st.tr, st.actions)
			if !reflect.DeepEqual(table, formatted) {
				t.Fatalf("seed %d: table labels %q, formatted labels %q", seed, table, formatted)
			}
			incidents, candidates := len(sc.incidents), len(sc.mon.viol)
			// AllocsPerRun makes one unmeasured warm-up call first; it
			// must not observe the step twice.
			warm := true
			allocs := testing.AllocsPerRun(1, func() {
				if warm {
					warm = false
					return
				}
				sc.ObserveStep(st.id, st.now, st.tr, st.actions)
			})
			if len(sc.incidents) != incidents || len(sc.mon.viol) != candidates {
				continue // incident and violation records allocate by design
			}
			if allocs != 0 {
				t.Fatalf("seed %d: ObserveStep of %q at t=%d allocates %v times, want 0", seed, table, st.now, allocs)
			}
			for kind, prefix := range pinned {
				for _, l := range table {
					if strings.HasPrefix(l, prefix) {
						seen[kind]++
						break
					}
				}
			}
		}
		res, err := sc.Finish(lost)
		if err != nil {
			t.Fatal(err)
		}
		if res.Unconfirmed != nil {
			t.Fatalf("seed %d: healthy adaptive run diverged: %v", seed, res.Unconfirmed)
		}
	}
	t.Logf("allocation-free steps observed, by kind: %v", seen)
	for kind := range pinned {
		if seen[kind] == 0 {
			t.Errorf("no allocation-free %s step was observed; pick richer runs (seen: %v)", kind, seen)
		}
	}
}

// TestIncidentTailRoundTrip: an incident's tail reads back exactly as fed,
// whether it was packed against the check's label table or kept as
// events because a label is foreign to the table or time jumps.
func TestIncidentTailRoundTrip(t *testing.T) {
	check := adaptiveCheck(t)
	lt := check.labelTable()
	base := []Event{
		{Time: 0, Label: labelRetune(2, 4)}, // saturates: degraded mode
		{Time: 0, Label: labelSendBeat(0)},
		{Time: 1, Label: labelDeliverToP(1)},
		{Time: 1, Label: labelSendBeat(1)},
		{Time: 3, Label: labelDeliverToP0(1)},
		{Time: 8, Label: labelTimeoutP0},
	}
	with := func(ev Event) []Event { return append(append([]Event(nil), base...), ev) }
	cases := []struct {
		name   string
		events []Event
		packed bool
	}{
		{"table labels", base, true},
		{"255-tick gap", with(Event{Time: 8 + 255, Label: labelSendBeat(0)}), true},
		{"256-tick gap", with(Event{Time: 8 + 256, Label: labelSendBeat(0)}), false},
		{"time backwards", with(Event{Time: 7, Label: labelSendBeat(0)}), false},
		{"foreign label", with(Event{Time: 9, Label: "p[1]: frobnicate"}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := lt.packTail(tc.events); ok != tc.packed {
				t.Fatalf("packTail ok = %v, want %v", ok, tc.packed)
			}
			// The degraded stream tolerates every event; an out-of-envelope
			// retune then raises a divergence whose tail is all of them.
			var inc *Incident
			sc, err := NewStreamChecker(StreamConfig{Check: check, Horizon: 1000,
				OnIncident: func(i *Incident) { inc = i }})
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range tc.events {
				sc.Feed(ev)
			}
			last := tc.events[len(tc.events)-1].Time
			sc.Feed(Event{Time: last, Label: labelRetune(3, 5)})
			if inc == nil || inc.Kind != IncidentDivergence {
				t.Fatalf("no divergence incident: %+v", inc)
			}
			if (inc.packed != nil) != tc.packed {
				t.Fatalf("incident tail packed = %v, want %v", inc.packed != nil, tc.packed)
			}
			if got := inc.Tail(); !reflect.DeepEqual(got, tc.events) {
				t.Fatalf("Tail() = %v, want %v", got, tc.events)
			}
		})
	}
}

package main

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faults"
	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// The campaign workload drives detector.NewCluster directly, the way
// scenario.RunCampaign does, so that it can read Cluster.Events and the
// link counters: an adaptive static cluster with two participants under
// the rack-loss scenario (bursty loss over [200, 800)), a crash of the
// coordinator at a seeded time after the burst and its restart once the
// detection window has passed, a StreamChecker as observer bound to a
// Supervisor that restarts the inactivated participants. It
// is the one workload where sim, netem, faults, core, detector, stream
// checking and the supervisor all run on every event. The specifications
// are built at set-up only.
const (
	campaignN       = 2
	campaignHorizon = 1200
	// The crash lands in [crashFrom, crashFrom+crashSpan), after the loss
	// burst ends at 800 and the estimator window has cleared.
	crashFrom = 900
	crashSpan = 100
	// restartAfter is how long the coordinator stays down: past the
	// participants' watchdog bound (16 ticks), so that every detection is
	// judged before the restart.
	restartAfter = 20
	// ledgerTrials is the trial count of each layer-ledger pass.
	ledgerTrials = 40
)

// campaignEnvelope is the adaptive envelope: one level, tmin 2 and
// tmax 8, so the loss estimator runs every round and under the burst
// every round is a saturated grace (a retune to the same point). A lower
// level (tmax 4) is left out: a widen one round after a tighten, with a
// participant's watchdog expiring as the wider round starts, makes the
// stream checker expect the coordinator's timeout at the narrower round
// length, an unconfirmed divergence in about one trial in 3000.
var campaignEnvelope = models.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 8, TMaxHi: 8}

// campaignSetup is everything built before the timed window.
type campaignSetup struct {
	check *conform.CampaignCheck
	base  detector.ClusterConfig
	loss  *faults.Schedule
}

func newCampaignSetup() (*campaignSetup, error) {
	env := campaignEnvelope
	tmin, tmax := env.Point(0)
	check := &conform.CampaignCheck{
		Model:    models.Config{TMin: tmin, TMax: tmax, Variant: models.Static, N: campaignN, Fixed: true},
		Envelope: &env,
	}
	for level := 0; level < env.Levels(); level++ {
		if _, err := check.SpecAt(level); err != nil {
			return nil, fmt.Errorf("building level %d spec: %w", level, err)
		}
	}
	base, err := conform.ClusterFor(check.Model)
	if err != nil {
		return nil, err
	}
	base.Adaptive = &core.AdaptiveOptions{
		Envelope: core.Envelope{
			TMinLo: core.Tick(env.TMinLo), TMinHi: core.Tick(env.TMinHi),
			TMaxLo: core.Tick(env.TMaxLo), TMaxHi: core.Tick(env.TMaxHi),
		},
		Window: 2, WidenAt: 0.25, TightenAt: 0.1, HoldRounds: 4,
	}
	sc, err := scenario.RackLossScenario(campaignN)
	if err != nil {
		return nil, err
	}
	return &campaignSetup{check: check, base: base, loss: sc.Schedule}, nil
}

// trialInput is one trial's generated input.
type trialInput struct {
	id          int64
	clusterSeed int64
	faultSeed   int64
	crashAt     sim.Time
}

// victim is the crashed node: the coordinator, whose crash every
// participant must detect within its watchdog bound. A crashed
// participant is not used: in this cluster one silent member of two is a
// reply loss of 1/2, at or above WidenAt, so the adaptive coordinator
// holds the envelope's top level and never suspects it.
const victim netem.NodeID = 0

// splitmix64 is the input generator's mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func campaignInput(seed, trial int64) trialInput {
	h := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(trial))
	draw := func() uint64 { h = splitmix64(h); return h }
	return trialInput{
		id:          trial,
		clusterSeed: int64(draw() >> 1),
		faultSeed:   int64(draw()>>1) | 1, // a zero schedule seed would fall back to the cluster seed
		crashAt:     crashFrom + sim.Time(draw()%crashSpan),
	}
}

// layerSet selects which layers a trial stacks on the bare cluster.
type layerSet struct{ faults, stream, heal bool }

var fullStack = layerSet{faults: true, stream: true, heal: true}

// trialResult is what one trial produced.
type trialResult struct {
	delay        int64 // crash-to-detection ticks, -1 when undetected
	bound        int64 // the participants' watchdog bound
	falseSuspect int   // coordinator suspicions of a live peer
	sends        uint64
	events       uint64
	runNS        int64

	divergence *conform.Incident
	faultErrs  []error
	stream     *conform.StreamResult
	log        []detector.Event
	net        netem.Stats
	faults     faults.Stats
	sup        detector.SupervisorMetrics
	restarts   int
}

// trialHooks are the optional timing wrappers and the step recorder.
type trialHooks struct {
	tt        *trialTrace
	core, obs *callAcc
	record    *stepRecorder
}

func runTrial(s *campaignSetup, in trialInput, lay layerSet, hk *trialHooks) (*trialResult, error) {
	cc := s.base
	cc.Seed = in.clusterSeed
	if lay.faults {
		events := append(append([]faults.Event(nil), s.loss.Events...),
			faults.Event{At: in.crashAt, Kind: faults.KindCrash, Node: victim},
			faults.Event{At: in.crashAt + restartAfter, Kind: faults.KindRestart, Node: victim})
		cc.Faults = &faults.Schedule{Seed: in.faultSeed, Events: events}
	}
	if lay.heal {
		cc.Heal = &detector.SupervisorConfig{}
	}
	var sc *conform.StreamChecker
	if lay.stream {
		var err error
		sc, err = conform.NewStreamChecker(conform.StreamConfig{Check: s.check, Horizon: campaignHorizon})
		if err != nil {
			return nil, err
		}
		cc.Observe = sc
	}
	if hk != nil && hk.record != nil {
		hk.record.inner = cc.Observe
		cc.Observe = hk.record
	}
	if hk != nil && hk.tt != nil {
		t := hk.tt.t
		cc.WrapMachine = func(_ netem.NodeID, m core.Machine) core.Machine {
			return &timedMachine{inner: m, t: t, acc: hk.core}
		}
		if cc.Observe != nil {
			cc.Observe = &timedObserver{inner: cc.Observe, t: t, acc: hk.obs}
		}
	}
	c, err := detector.NewCluster(cc)
	if err != nil {
		return nil, err
	}
	if sc != nil && c.Supervisor != nil {
		sc.BindSupervisor(c.Supervisor)
	}
	if !lay.faults {
		if _, err := c.Sim.ScheduleAt(in.crashAt, func() { _ = c.CrashNode(victim) }); err != nil {
			return nil, err
		}
		if _, err := c.Sim.ScheduleAt(in.crashAt+restartAfter, func() { _ = c.RestartNode(victim) }); err != nil {
			return nil, err
		}
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	var runSpan int
	if hk != nil && hk.tt != nil {
		runSpan = hk.tt.begin("sim.run_until", 0) // under the trial's root span
	}
	start := wallNow()
	c.Sim.RunUntil(campaignHorizon)
	r := &trialResult{runNS: int64(wallSince(start))}
	if hk != nil && hk.tt != nil {
		hk.tt.end(runSpan)
		hk.tt.fold("core.step", runSpan, hk.core)
		hk.tt.fold("conform.observe", runSpan, hk.obs)
	}
	c.Stop()

	r.events = c.Sim.EventsExecuted()
	r.net = c.Net.Stats()
	r.sends = r.net.Total.Sent
	lost := r.net.Total.Lost
	if c.Faults != nil {
		r.faults = c.Faults.Stats()
		r.sends = r.faults.Intercepted
		lost += r.faults.DroppedMuted + r.faults.DroppedPartition + r.faults.DroppedLoss
	}
	if sc != nil {
		// The no-loss premise of R2/R3, as scenario.RunCampaign passes it.
		if r.stream, err = sc.Finish(lost); err != nil {
			return nil, err
		}
		r.divergence = r.stream.Unconfirmed
	}
	if c.Supervisor != nil {
		r.sup = c.Supervisor.Metrics()
		r.restarts = c.Supervisor.Restarts(c.Coordinator.ID())
		for id := 1; id <= campaignN; id++ {
			r.restarts += c.Supervisor.Restarts(netem.NodeID(id))
		}
	}
	r.faultErrs = c.FaultErrors()
	r.log = c.Events
	r.delay, r.bound, r.falseSuspect = judgeDetection(c.Events, in)
	return r, nil
}

// judgeDetection takes the delay from the coordinator's crash to the
// moment every participant that was up at the crash has inactivated, and
// the bound each of them is held to: the watchdog bound of the
// responders' configuration (core's ResponderBound at the envelope's
// worst-case point). It also counts coordinator suspicions of a peer
// that was live at the time: not inactivated, or restarted since.
func judgeDetection(events []detector.Event, in trialInput) (delay, bound int64, falseSuspects int) {
	responder := core.Config{TMin: core.Tick(campaignEnvelope.TMinLo), TMax: core.Tick(campaignEnvelope.TMaxHi), Fixed: true}
	bound = int64(responder.ResponderBound())
	down := map[netem.NodeID]bool{}
	var waiting map[netem.NodeID]bool // participants up at the crash, not yet inactivated
	for _, e := range events {
		if waiting == nil && e.Time >= core.Tick(in.crashAt) {
			waiting = map[netem.NodeID]bool{}
			for id := netem.NodeID(1); id <= campaignN; id++ {
				if !down[id] {
					waiting[id] = true
				}
			}
		}
		switch {
		case e.Kind == detector.EventRestarted:
			down[e.Node] = false
		case e.Kind == detector.EventInactivated:
			down[e.Node] = true
			if waiting[e.Node] && !e.Voluntary {
				delete(waiting, e.Node)
				if len(waiting) == 0 {
					delay = int64(e.Time) - int64(in.crashAt)
				}
			}
		case e.Kind == detector.EventSuspect && e.Node == 0 && !down[netem.NodeID(e.Proc)]:
			falseSuspects++
		}
	}
	if waiting == nil || len(waiting) > 0 {
		delay = -1
	}
	return delay, bound, falseSuspects
}

// checkTrial applies the campaign's output checks to one trial.
func checkTrial(out *outcome, in trialInput, r *trialResult) {
	out.check(r.divergence == nil && len(r.faultErrs) == 0 && r.delay >= 0 && r.delay <= r.bound,
		"trial %d: divergence=%v faultErrors=%v crash of the coordinator at %d detected after %d ticks (bound %d)",
		in.id, r.divergence, r.faultErrs, in.crashAt, r.delay, r.bound)
}

// campaignPass runs trials back to back on env.workers goroutines until
// the deadline, numbering them from first.
type campaignPass struct {
	mu      sync.Mutex
	results map[int64]*trialResult
	ends    []time.Time
	trials  int64
}

func runCampaignPass(s *campaignSetup, e env, first int64, until time.Time, tr *tracer) (*campaignPass, error) {
	p := &campaignPass{results: map[int64]*trialResult{}}
	var next atomic.Int64
	next.Store(first)
	var wg sync.WaitGroup
	errs := make([]error, e.workers)
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for wallNow().Before(until) {
				id := next.Add(1) - 1
				in := campaignInput(e.seed, id)
				var hk *trialHooks
				var root int
				if tr != nil {
					hk = &trialHooks{tt: tr.trial(id), core: &callAcc{}, obs: &callAcc{}}
					root = hk.tt.begin("trial", -1)
				}
				r, err := runTrial(s, in, fullStack, hk)
				if err != nil {
					errs[w] = err
					return
				}
				if hk != nil {
					hk.tt.end(root)
					hk.tt.finish()
				}
				r.log = nil // keep the pass small; judged already
				p.mu.Lock()
				p.results[id] = r
				p.ends = append(p.ends, wallNow())
				p.trials++
				p.mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// perSecond turns completion times into per-second rates over whole
// one-second slices of the window.
func perSecond(start time.Time, ends []time.Time) []float64 {
	var counts []float64
	for _, t := range ends {
		i := int(t.Sub(start) / time.Second)
		for len(counts) <= i {
			counts = append(counts, 0)
		}
		counts[i]++
	}
	if len(counts) > 1 {
		counts = counts[:len(counts)-1] // the last slice is partial
	}
	return counts
}

func runCampaign(e env) (*outcome, error) {
	out := &outcome{opName: "trial", layers: newLayers()}
	s, err := timeSetup(out, 5, newCampaignSetup)
	if err != nil {
		return nil, err
	}
	tmin, tmax := campaignEnvelope.Point(0)
	out.input = map[string]any{
		"horizon_ticks": campaignHorizon, "participants": campaignN, "endpoints_per_trial": campaignN,
		"tmin": tmin, "tmax": tmax, "envelope_levels": campaignEnvelope.Levels(),
		"loss":  "rack-loss Gilbert-Elliott pgb=0.25 pbg=0.25 lg=0.6 lb=0.95 over [200,800)",
		"crash": fmt.Sprintf("the coordinator at [%d,%d)", crashFrom, crashFrom+crashSpan),
		"loop":  "closed", "workers": e.workers,
	}
	seconds := e.seconds
	if e.trace {
		seconds /= 2
	}
	sub := e
	sub.seconds = seconds
	// Half a second of untimed trials first (numbered apart from the
	// timed ones), so that the timed window runs warm.
	if _, err := runCampaignPass(s, sub, -1<<32, wallNow().Add(time.Second/2), nil); err != nil {
		return nil, err
	}

	w := startWindow()
	g0 := readGoStats()
	pass, err := runCampaignPass(s, sub, 0, sub.deadline(), nil)
	if err != nil {
		return nil, err
	}
	g1 := readGoStats()
	w.stop(out)
	out.ops = pass.trials

	ids := make([]int64, 0, len(pass.results))
	for id := range pass.results {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var delays, beats []float64
	var falseSusp, endpointTicks float64
	for _, id := range ids {
		r := pass.results[id]
		checkTrial(out, campaignInput(e.seed, id), r)
		if r.delay >= 0 {
			delays = append(delays, float64(r.delay))
		}
		beats = append(beats, float64(r.sends)/float64(campaignN*campaignHorizon))
		falseSusp += float64(r.falseSuspect)
		endpointTicks += campaignN * campaignHorizon
	}
	out.report = []summary{summarise("campaign_trials_per_s", "1/s", perSecond(w.start, pass.ends))}
	out.report = append(out.report, latency("detect_p50_ticks", "detect_p99_ticks", "ticks", delays, "virtual ticks from the coordinator's crash to the last participant's inactivation")...)
	out.report = append(out.report,
		summarise("beats_per_tick", "1/tick", beats),
		one("false_suspicion_rate", "per 1e6 endpoint-ticks", falseSusp/endpointTicks*1e6),
		summarise("setup_s", "s", out.setup),
		one("peak_heap_mb", "MB", float64(out.peakHeap)/(1<<20)),
	)
	if !e.trace {
		return out, nil
	}
	untracedRate := float64(pass.trials) / out.wall.Seconds()
	out.layers["conform.spec_build_s"] = median(out.setup)
	if err := traceCampaign(s, sub, out, untracedRate, pass.trials); err != nil {
		return nil, err
	}
	addGoLayers(out.layers, g0, g1, pass.trials)
	return out, nil
}

// traceCampaign is the traced half of a --trace 1 run: the timed pass
// with every wrapper on, the wrapper-transparency check, the layer ledger,
// the core and stream-checker replays, and the spec-build layers.
func traceCampaign(s *campaignSetup, e env, out *outcome, untracedRate float64, first int64) error {
	tr := newTracer()
	start := wallNow()
	pass, err := runCampaignPass(s, e, first, e.deadline(), tr)
	if err != nil {
		return err
	}
	wall := wallSince(start)
	l := out.layers
	l["trace.overhead_pct"] = overheadPct(untracedRate, float64(pass.trials)/wall.Seconds())

	var events, sent, lost, intercepted, dropped uint64
	var suspects, confirms, restarts, frontier, shed int
	for _, r := range pass.results {
		events += r.events
		sent += r.net.Total.Sent
		lost += r.net.Total.Lost
		intercepted += r.faults.Intercepted
		dropped += r.faults.DroppedMuted + r.faults.DroppedPartition + r.faults.DroppedLoss
		suspects += r.sup.Suspects
		confirms += r.sup.Confirms
		restarts += r.restarts
		frontier = max(frontier, r.stream.MaxFrontierSeen)
		shed += r.stream.ShedEvents
	}
	coreNS, steps := tr.total("core.step")
	obsNS, obsCalls := tr.total("conform.observe")
	// RunUntil's self time: its duration minus the core and conform
	// spans folded under it, which leaves sim, netem, faults and detector.
	selfNS, _ := tr.selfTime("sim.run_until")
	l["sim.events"] = float64(events)
	l["core.steps"] = float64(steps)
	l["core.step_ns"] = float64(coreNS) / float64(max(steps, 1))
	l["conform.events"] = float64(obsCalls)
	l["conform.observe_ns"] = float64(obsNS) / float64(max(obsCalls, 1))
	l["conform.frontier_max"] = float64(frontier)
	l["conform.shed_events"] = float64(shed)
	l["runtime.self_ns_per_event"] = float64(selfNS) / float64(max(events, 1))
	l["netem.sent"] = float64(sent)
	l["netem.lost"] = float64(lost)
	l["faults.intercepted"] = float64(intercepted)
	l["faults.dropped"] = float64(dropped)
	l["detector.suspects"] = float64(suspects)
	l["detector.confirms"] = float64(confirms)
	l["detector.restarts"] = float64(restarts)
	if err := tr.write("campaign", e.seed); err != nil {
		return err
	}

	in := campaignInput(e.seed, 0)
	same, err := wrappersTransparent(s, in)
	if err != nil {
		return err
	}
	out.check(same, "trial %d: the timing wrappers changed the events, stream result or link counters", in.id)

	if err := campaignLedger(s, e, out); err != nil {
		return err
	}
	if err := campaignReplays(s, e, out); err != nil {
		return err
	}
	return specLayers(s, l)
}

// wrappersTransparent runs one trial with every timing wrapper on and
// with all of them off, and reports whether the cluster events, the
// stream result and the link counters are identical.
func wrappersTransparent(s *campaignSetup, in trialInput) (bool, error) {
	plain, err := runTrial(s, in, fullStack, nil)
	if err != nil {
		return false, err
	}
	tr := newTracer()
	hk := &trialHooks{tt: tr.trial(in.id), core: &callAcc{}, obs: &callAcc{}, record: &stepRecorder{}}
	hk.tt.begin("trial", -1)
	timed, err := runTrial(s, in, fullStack, hk)
	if err != nil {
		return false, err
	}
	return reflect.DeepEqual(plain.log, timed.log) &&
		reflect.DeepEqual(plain.stream, timed.stream) &&
		reflect.DeepEqual(plain.net, timed.net) &&
		reflect.DeepEqual(plain.faults, timed.faults), nil
}

// ledgerStacks are the layer-ledger rows: each adds one layer to the
// previous on the same seeded trials.
var ledgerStacks = []struct {
	name string
	lay  layerSet
}{
	{"bare", layerSet{}},
	{"faults", layerSet{faults: true}},
	{"stream", layerSet{faults: true, stream: true}},
	{"heal", fullStack},
}

// campaignLedger runs the same ledgerTrials trials on one goroutine with
// the layers stacked one at a time, three rounds interleaved, and reports
// each row's median RunUntil ns per simulator event and its exact
// allocations per event.
func campaignLedger(s *campaignSetup, e env, out *outcome) error {
	type row struct {
		nsPerEvent []float64
		events     uint64
		sends      uint64
		allocs     uint64
	}
	rows := make([]row, len(ledgerStacks))
	for round := 0; round < 3; round++ {
		for i, st := range ledgerStacks {
			var ns int64
			var events, sends uint64
			m0 := mallocs()
			for k := int64(0); k < ledgerTrials; k++ {
				r, err := runTrial(s, campaignInput(e.seed, k), st.lay, nil)
				if err != nil {
					return err
				}
				ns += r.runNS
				events += r.events
				sends += r.sends
			}
			m1 := mallocs()
			rows[i].nsPerEvent = append(rows[i].nsPerEvent, float64(ns)/float64(events))
			rows[i].events, rows[i].sends, rows[i].allocs = events, sends, m1-m0
		}
	}
	l := out.layers
	ns := make([]float64, len(rows))
	for i, st := range ledgerStacks {
		ns[i] = median(rows[i].nsPerEvent)
		l["ledger."+st.name+"_ns_per_event"] = ns[i]
		l["ledger."+st.name+"_allocs_per_event"] = float64(rows[i].allocs) / float64(rows[i].events)
	}
	// The fault layer's cost is what +faults adds beyond the bare cost of
	// the same number of events, per send it intercepted; the
	// supervisor's is what +heal adds per event beyond +stream.
	f := rows[1]
	l["faults.ns_per_send"] = (ns[1] - ns[0]) * float64(f.events) / float64(f.sends)
	l["detector.supervisor_ns_per_event"] = ns[3] - ns[2]
	return nil
}

// stepRecorder copies every observed machine step, forwarding it to the
// wrapped observer, so that the core and stream-checker layers can be
// replayed alone.
type stepRecorder struct {
	inner detector.Observer
	steps []recordedStep
}

type recordedStep struct {
	id      netem.NodeID
	now     core.Tick
	tr      detector.Trigger
	actions []core.Action
}

func (r *stepRecorder) ObserveStep(id netem.NodeID, now core.Tick, tr detector.Trigger, actions []core.Action) {
	r.steps = append(r.steps, recordedStep{id: id, now: now, tr: tr, actions: append([]core.Action(nil), actions...)})
	if r.inner != nil {
		r.inner.ObserveStep(id, now, tr, actions)
	}
}

// campaignReplays records the steps of ledgerTrials trials, then replays
// them into fresh protocol machines (the core layer alone) and into a
// fresh StreamChecker (the conform layer alone), counting exact
// allocations. The machine replay must reproduce every recorded action.
func campaignReplays(s *campaignSetup, e env, out *outcome) error {
	var coreSteps, coreAllocs, obsEvents, obsAllocs uint64
	for k := int64(0); k < ledgerTrials; k++ {
		rec := &stepRecorder{}
		in := campaignInput(e.seed, k)
		if _, err := runTrial(s, in, fullStack, &trialHooks{record: rec}); err != nil {
			return err
		}
		machines := map[netem.NodeID]core.Machine{}
		for id := netem.NodeID(0); id <= campaignN; id++ {
			m, err := freshMachine(s, id)
			if err != nil {
				return err
			}
			machines[id] = m
		}
		restarts := make([]core.Machine, 0, 8)
		for _, st := range rec.steps {
			if st.tr.Kind == detector.TriggerRestart {
				m, err := freshMachine(s, st.id)
				if err != nil {
					return err
				}
				restarts = append(restarts, m)
			}
		}
		mismatch := 0
		m0 := mallocs()
		for _, st := range rec.steps {
			m := machines[st.id]
			var acts []core.Action
			switch st.tr.Kind {
			case detector.TriggerStart:
				acts = m.Start(st.now)
			case detector.TriggerRestart:
				m, restarts = restarts[0], restarts[1:]
				machines[st.id] = m
				acts = m.Start(st.now)
			case detector.TriggerTimer:
				acts = m.OnTimer(st.tr.Timer, st.now)
			case detector.TriggerBeat:
				acts = m.OnBeat(st.tr.Beat, st.now)
			case detector.TriggerCrash:
				acts = m.Crash(st.now)
			}
			if !actionsEqual(acts, st.actions) {
				mismatch++
			}
		}
		m1 := mallocs()
		coreSteps += uint64(len(rec.steps))
		coreAllocs += m1 - m0
		out.check(mismatch == 0, "trial %d: %d replayed machine steps did not reproduce the recorded actions", k, mismatch)

		sc, err := conform.NewStreamChecker(conform.StreamConfig{Check: s.check, Horizon: campaignHorizon})
		if err != nil {
			return err
		}
		m2 := mallocs()
		for _, st := range rec.steps {
			sc.ObserveStep(st.id, st.now, st.tr, st.actions)
		}
		m3 := mallocs()
		obsEvents += uint64(len(rec.steps))
		obsAllocs += m3 - m2
	}
	out.layers["core.allocs_per_step"] = float64(coreAllocs) / float64(coreSteps)
	out.layers["conform.allocs_per_event"] = float64(obsAllocs) / float64(obsEvents)
	return nil
}

func actionsEqual(a, b []core.Action) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// freshMachine builds the machine the cluster runs at node id: the
// adaptive coordinator at p[0], responders at the envelope's worst-case
// watchdog configuration elsewhere (see detector.ClusterConfig.Adaptive).
func freshMachine(s *campaignSetup, id netem.NodeID) (core.Machine, error) {
	cfg := s.base.Core
	cfg.TMin, cfg.TMax = s.base.Adaptive.Envelope.Point(0)
	if id == 0 {
		cc := core.CoordinatorConfig{Config: cfg, Membership: core.MembershipFixed}
		for i := 1; i <= campaignN; i++ {
			cc.Members = append(cc.Members, core.ProcID(i))
		}
		return core.NewAdaptiveCoordinator(cc, *s.base.Adaptive)
	}
	return core.NewResponder(s.base.Adaptive.Envelope.ResponderConfig(cfg), core.ProcID(id))
}

// specLayers times the analysis layers under the campaign's set-up on its
// own specification models: model build plus LTS generation, then strong
// bisimulation minimisation of the same LTS.
func specLayers(s *campaignSetup, l map[string]float64) error {
	var ltsNS, minNS int64
	var states int
	for level := 0; level < campaignEnvelope.Levels(); level++ {
		cfg := campaignEnvelope.LevelConfig(s.check.Model, level)
		cfg.NoMonitor = true // as conform.BuildSpec builds it
		t0 := wallNow()
		m, err := models.Build(cfg)
		if err != nil {
			return err
		}
		lts, err := mc.BuildLTS(m.Net, mc.Options{})
		if err != nil {
			return err
		}
		t1 := wallNow()
		lts.MinimizeStrong()
		t2 := wallNow()
		ltsNS += int64(t1.Sub(t0))
		minNS += int64(t2.Sub(t1))
		states += lts.NumStates
	}
	l["mc.lts_ns_per_state"] = float64(ltsNS) / float64(states)
	l["mc.minimise_ns_per_state"] = float64(minNS) / float64(states)
	return nil
}

package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/fleet"
	"repro/internal/netem"
	"repro/internal/stats"
)

// The montecarlo workload runs the two struct-of-arrays row executors and
// nothing else: a slice of the Q2 (detection) and Q3 (false detection
// under loss) ensemble sweeps over all six variants, alternating with
// epochs of a 262,144-endpoint fleet, the one heavy user of
// sim.TimerWheel. Neither touches detector, netem or conform. An
// operation is one protocol round closed, by either executor.
const (
	mcTMin, mcTMax = 2, 16
	mcMembers      = 2    // members of the multi-process variants
	mcTrials       = 1024 // trials per variant and shape in one slice
	mcLoss         = 0.05 // Q3 loss probability
	mcQ3Horizon    = 4000

	fleetClusters    = 4096
	fleetClusterSize = 64
	fleetLoss        = 0.01
	fleetKillEvery   = 64
	fleetEpochs      = 4 // epochs per fleet step of the loop
)

// ensembleSlice runs every variant in both shapes once and returns the
// trials, rounds and the Q2 results.
type sliceResult struct {
	trials, rounds int64
	q2             []*ensemble.Result
	q2Cfg          []ensemble.Config
}

func ensembleConfigs(seed int64, slice int64, workers int) (q2, q3 []ensemble.Config) {
	for i, v := range ensemble.Variants(mcMembers) {
		c := core.Config{TMin: mcTMin, TMax: mcTMax, TwoPhase: v.TwoPhase, Revised: v.Revised, Fixed: v.Fixed}
		base := int64(splitmix64(uint64(seed)^uint64(slice)<<20^uint64(i)) >> 1)
		q2 = append(q2, ensemble.Config{
			Protocol: v.Protocol, Core: c, N: v.N, Trials: mcTrials, Seed: base, Workers: workers,
			Link:   netem.LinkConfig{MaxDelay: mcTMin / 2},
			Victim: 1, CrashAt: mcTMax * 10, CrashJitter: mcTMax, Horizon: mcTMax * 22,
		})
		q3 = append(q3, ensemble.Config{
			Protocol: v.Protocol, Core: c, N: v.N, Trials: mcTrials, Seed: base + 1<<40, Workers: workers,
			Link: netem.LinkConfig{LossProb: mcLoss}, Horizon: mcQ3Horizon,
		})
	}
	return q2, q3
}

func runEnsembleSlice(seed, slice int64, workers int) (*sliceResult, error) {
	q2, q3 := ensembleConfigs(seed, slice, workers)
	s := &sliceResult{q2Cfg: q2}
	for _, cfg := range append(q2, q3...) {
		r, err := ensemble.Run(cfg)
		if err != nil {
			return nil, err
		}
		s.trials += int64(r.Trials)
		s.rounds += int64(r.Rounds)
		if cfg.Victim != 0 {
			s.q2 = append(s.q2, r)
		}
	}
	return s, nil
}

// checkSlice: with zero loss every crash is detected, within the
// coordinator's detection bound.
func checkSlice(out *outcome, s *sliceResult) {
	for i, r := range s.q2 {
		cfg := s.q2Cfg[i]
		worst, _ := r.Delay.Max()
		bound := float64(cfg.Core.CoordinatorDetectionBound())
		out.check(r.Missed == 0 && r.Detected == r.Trials && worst <= bound,
			"ensemble %v %+v: %d of %d crashes detected, %d missed, worst delay %v (bound %v)",
			cfg.Protocol, cfg.Core, r.Detected, r.Trials, r.Missed, worst, bound)
	}
}

func newFleet(seed int64, workers int) (*fleet.Fleet, error) {
	return fleet.New(fleet.Config{
		Clusters: fleetClusters, ClusterSize: fleetClusterSize, Workers: workers,
		Core:     core.Config{TMin: mcTMin, TMax: mcTMax},
		LossProb: fleetLoss, KillEvery: fleetKillEvery, Seed: seed,
	})
}

func runMonteCarlo(e env) (*outcome, error) {
	out := &outcome{opName: "round", layers: newLayers()}
	f, err := timeSetup(out, 3, func() (*fleet.Fleet, error) { return newFleet(e.seed, e.workers) })
	if err != nil {
		return nil, err
	}
	out.input = map[string]any{
		"ensemble": map[string]any{
			"variants": len(ensemble.Variants(mcMembers)), "members": mcMembers, "tmin": mcTMin, "tmax": mcTMax,
			"trials_per_variant_and_shape": mcTrials, "q2_horizon": mcTMax * 22, "q2_loss": 0,
			"q3_horizon": mcQ3Horizon, "q3_loss": mcLoss, "mode": "fast",
		},
		"fleet": map[string]any{
			"clusters": fleetClusters, "cluster_size": fleetClusterSize, "endpoints": f.Endpoints(),
			"tmin": mcTMin, "tmax": mcTMax, "loss": fleetLoss, "kill_every": fleetKillEvery,
			"epochs_per_step": fleetEpochs,
		},
		"workers": e.workers, "loop": "closed",
	}
	seconds := e.seconds
	if e.trace {
		seconds /= 2
	}
	// One untimed slice and fleet step first, so that the timed loop runs
	// warm.
	if _, err := runEnsembleSlice(e.seed, -1, e.workers); err != nil {
		return nil, err
	}
	if err := f.RunEpochs(fleetEpochs); err != nil {
		return nil, err
	}
	deadline := wallNow().Add(time.Duration(seconds * float64(time.Second)))

	w := startWindow()
	g0 := readGoStats()
	st0, t0 := f.Stats(), f.Now()
	var mcRates, fleetRates []float64
	var slices []*sliceResult
	for k := int64(0); k == 0 || wallNow().Before(deadline); k++ {
		start := wallNow()
		s, err := runEnsembleSlice(e.seed, k, e.workers)
		if err != nil {
			return nil, err
		}
		mcRates = append(mcRates, float64(s.trials)/wallSince(start).Seconds())
		slices = append(slices, s)

		before := f.Stats().Beats
		start = wallNow()
		if err := f.RunEpochs(fleetEpochs); err != nil {
			return nil, err
		}
		beats := f.Stats().Beats - before
		fleetRates = append(fleetRates, float64(beats)/wallSince(start).Seconds())
		out.ops += s.rounds + int64(beats)
	}
	g1 := readGoStats()
	w.stop(out)
	st1, t1 := f.Stats(), f.Now()

	for _, s := range slices {
		checkSlice(out, s)
	}
	out.check(st1.MissedDeadlines == 0 && st1.SilentLinks == 0,
		"fleet: %d missed deadlines, %d silent links", st1.MissedDeadlines, st1.SilentLinks)

	endpointTicks := float64(f.Endpoints()) * float64(t1-t0)
	p50, p99, n := f.DetectionLatency()
	const quartilesNote = "fleet.DetectionLatency exposes p50 and p99 only"
	out.report = []summary{
		summarise("mc_trials_per_s", "1/s", mcRates),
		summarise("fleet_beats_per_s", "1/s", fleetRates),
		{Name: "detect_p50_ticks", Unit: "ticks", Median: float64(p50), N: int(n), Note: quartilesNote},
		{Name: "detect_p99_ticks", Unit: "ticks", Median: float64(p99), P99: float64(p99), N: int(n), Note: quartilesNote},
		one("beats_per_tick", "1/tick", float64(st1.Beats-st0.Beats+st1.Replies-st0.Replies)/endpointTicks),
		one("false_suspicion_rate", "per 1e6 endpoint-ticks", float64(st1.FalseSuspects-st0.FalseSuspects)/endpointTicks*1e6),
		summarise("setup_s", "s", out.setup),
		one("peak_heap_mb", "MB", float64(out.peakHeap)/(1<<20)),
	}
	if !e.trace {
		return out, nil
	}
	untracedRate := float64(out.ops) / out.wall.Seconds()
	if err := traceMonteCarlo(e, out, f, untracedRate); err != nil {
		return nil, err
	}
	addGoLayers(out.layers, g0, g1, out.ops)
	return out, nil
}

// traceMonteCarlo is the traced half: the same loop with a span around
// each ensemble run and each single fleet epoch, then exact allocation
// counts for one slice and a few epochs.
func traceMonteCarlo(e env, out *outcome, f *fleet.Fleet, untracedRate float64) error {
	tr := newTracer()
	l := out.layers
	deadline := wallNow().Add(time.Duration(e.seconds / 2 * float64(time.Second)))
	start := wallNow()
	var ops, rounds, beats, ensNS, fleetNS int64
	var epochMS []float64
	for k := int64(1 << 30); k == 1<<30 || wallNow().Before(deadline); k++ {
		tt := tr.trial(k)
		q2, q3 := ensembleConfigs(e.seed, k, e.workers)
		for _, cfg := range append(q2, q3...) {
			sp := tt.begin("ensemble.run", -1)
			r, err := ensemble.Run(cfg)
			if err != nil {
				return err
			}
			tt.end(sp)
			ensNS += tt.spans[sp].Dur
			rounds += int64(r.Rounds)
		}
		for i := 0; i < fleetEpochs; i++ {
			b0 := f.Stats().Beats
			sp := tt.begin("fleet.epoch", -1)
			if err := f.RunEpochs(1); err != nil {
				return err
			}
			tt.end(sp)
			fleetNS += tt.spans[sp].Dur
			epochMS = append(epochMS, float64(tt.spans[sp].Dur)/1e6)
			beats += int64(f.Stats().Beats - b0)
		}
		tt.finish()
	}
	ops = rounds + beats
	l["trace.overhead_pct"] = overheadPct(untracedRate, float64(ops)/wallSince(start).Seconds())
	l["ensemble.rounds"] = float64(rounds)
	l["ensemble.ns_per_round"] = float64(ensNS) / float64(rounds)
	l["fleet.beats"] = float64(beats)
	l["fleet.ns_per_beat"] = float64(fleetNS) / float64(beats)
	var ep stats.Sample
	for _, v := range epochMS {
		ep.Add(v)
	}
	l["fleet.epoch_p50_ms"], _ = ep.Percentile(50)
	l["fleet.epoch_p99_ms"], _ = ep.Percentile(99)

	q2, q3 := ensembleConfigs(e.seed, 0, e.workers)
	var allocs, allocRounds uint64
	for _, cfg := range append(q2, q3...) {
		m0 := mallocs()
		r, err := ensemble.Run(cfg)
		m1 := mallocs()
		if err != nil {
			return err
		}
		allocs += m1 - m0
		allocRounds += r.Rounds
	}
	l["ensemble.allocs_per_round"] = float64(allocs) / float64(allocRounds)
	m0 := mallocs()
	if err := f.RunEpochs(fleetEpochs); err != nil {
		return err
	}
	l["fleet.allocs_per_epoch"] = float64(mallocs()-m0) / fleetEpochs
	st := f.Stats()
	l["fleet.missed_deadlines"] = float64(st.MissedDeadlines)
	l["fleet.stale_children"] = float64(st.StaleChildren)
	return tr.write("montecarlo", e.seed)
}

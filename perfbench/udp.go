package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/netem"
	"repro/internal/stats"
)

// The udp workload is the real-time stack over UDP loopback: small
// clusters, each on its own netem.UDPTransport, all on one
// detector.WallClock at a 1 ms tick. Binary clusters, plus static
// clusters whose coordinator fans beats out to three participants. It is
// the only workload on real sockets, goroutines and wall timers. The crash
// schedule is open loop: crash times are generated from the seed up front
// and injected when due, whatever the stack is doing; each crash is timed
// from when it was due to the coordinator's suspicion, and the whole
// cluster is restarted with fresh machines after the detection window.
const (
	udpTick    = time.Millisecond
	udpBinary  = 24
	udpStatic  = 8
	udpStaticN = 3
	// A participant's watchdog, 3*tmax - tmin = 176 ticks, must outlast
	// the process stalls of a shared host (50 ms ones occur): one that
	// fires during a stall inactivates the participant, and the
	// coordinator then suspects a node that was never crashed.
	udpTMin, udpTMax = 16, 64
	// Per cluster: the first crash falls in [udpWarm, udpWarm+udpJitter)
	// ticks; after each crash the cluster restarts udpRestart ticks later,
	// past the 176-tick detection bound, and the next crash falls
	// udpSettle+[0, udpJitter) ticks after that.
	udpWarm    = 100
	udpRestart = 250
	udpSettle  = 60
	udpJitter  = 100
)

// udpCluster is one monitored cluster and its crash bookkeeping.
type udpCluster struct {
	id    int
	n     int // participants
	trans *netem.UDPTransport
	nodes []*detector.Node // index = process ID
	cfg   core.Config

	mu sync.Mutex
	// The crash in progress: victim and due time; detected is set at the
	// coordinator's first suspicion of the victim.
	victim        core.ProcID
	due           time.Time
	crashed       bool
	detected      bool
	latency       time.Duration
	falseSuspects int
	crashLagUS    float64 // how late the generator injected the crash
}

func (c *udpCluster) onEvent(e detector.Event) {
	if e.Kind != detector.EventSuspect || e.Node != 0 {
		return
	}
	now := wallNow()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed && !c.detected && e.Proc == c.victim {
		c.detected, c.latency = true, now.Sub(c.due)
		return
	}
	if !c.crashed || e.Proc != c.victim {
		c.falseSuspects++
	}
}

func (c *udpCluster) machine(id core.ProcID) (core.Machine, error) {
	if id == 0 {
		cc := core.CoordinatorConfig{Config: c.cfg, Membership: core.MembershipFixed}
		for i := 1; i <= c.n; i++ {
			cc.Members = append(cc.Members, core.ProcID(i))
		}
		return core.NewCoordinator(cc)
	}
	return core.NewResponder(c.cfg, id)
}

// udpHooks are the transport and clock wrappers of a traced run.
type udpHooks struct {
	sends, deliveries counter
	clock             *lateClock
}

// sendCounter counts sends; the untraced run's only wrapper, so that
// heartbeats can be the operation unit.
type sendCounter struct {
	netem.Transport
	n *atomic.Int64
}

func (s sendCounter) Send(from, to netem.NodeID, payload []byte) error {
	s.n.Add(1)
	return s.Transport.Send(from, to, payload)
}

// udpFleet is every cluster of the workload.
type udpFleet struct {
	clusters  []*udpCluster
	clock     detector.Clock
	sends     atomic.Int64
	endpoints int
}

func newUDPFleet(hk *udpHooks) (*udpFleet, error) {
	f := &udpFleet{}
	wall := detector.NewWallClock(udpTick)
	f.clock = wall
	if hk != nil {
		hk.clock = &lateClock{inner: wall, tickLen: udpTick}
		f.clock = hk.clock
	}
	for i := 0; i < udpBinary+udpStatic; i++ {
		n := 1
		if i >= udpBinary {
			n = udpStaticN
		}
		c := &udpCluster{id: i, n: n, trans: netem.NewUDPTransport(), cfg: core.Config{TMin: udpTMin, TMax: udpTMax}}
		f.clusters = append(f.clusters, c)
		f.endpoints += n
		var tp netem.Transport = sendCounter{Transport: c.trans, n: &f.sends}
		if hk != nil {
			tp = &timedTransport{inner: tp, sends: &hk.sends, deliveries: &hk.deliveries}
		}
		for id := 0; id <= n; id++ {
			m, err := c.machine(core.ProcID(id))
			if err != nil {
				f.close()
				return nil, err
			}
			node, err := detector.NewNode(detector.Config{
				ID: netem.NodeID(id), Machine: m, Clock: f.clock, Transport: tp,
				Events: detector.EventFunc(c.onEvent),
			})
			if err != nil {
				f.close()
				return nil, err
			}
			c.nodes = append(c.nodes, node)
		}
	}
	return f, nil
}

// start starts every node: participants first, so their watchdogs run
// before the coordinator's first beat.
func (f *udpFleet) start() error {
	for _, c := range f.clusters {
		for id := len(c.nodes) - 1; id >= 0; id-- {
			if err := c.nodes[id].Start(); err != nil {
				return err
			}
		}
	}
	return nil
}

// close crashes every node, which cancels its timers, and closes every
// transport, which waits for the receive loops to exit.
func (f *udpFleet) close() {
	for _, c := range f.clusters {
		for _, n := range c.nodes {
			n.Crash()
		}
		_ = c.trans.Close() // sockets on loopback; a close error leaves nothing to undo
	}
}

// udpAction is one scheduled injection: a crash or a restart.
type udpAction struct {
	at      time.Duration // since the start of the run
	cluster int
	restart bool
	victim  core.ProcID
	seq     int // crash number within the cluster
}

// udpSchedule generates the open-loop crash schedule from the seed.
func udpSchedule(seed int64, clusters []*udpCluster, window time.Duration) []udpAction {
	var acts []udpAction
	for _, c := range clusters {
		h := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(c.id))
		draw := func(n uint64) uint64 { h = splitmix64(h); return h % n }
		at := udpWarm + int64(draw(udpJitter))
		for seq := 0; ; seq++ {
			restartAt := at + udpRestart
			if time.Duration(restartAt)*udpTick > window {
				break
			}
			victim := core.ProcID(1 + draw(uint64(c.n)))
			acts = append(acts,
				udpAction{at: time.Duration(at) * udpTick, cluster: c.id, victim: victim, seq: seq},
				udpAction{at: time.Duration(restartAt) * udpTick, cluster: c.id, restart: true, seq: seq})
			at = restartAt + udpSettle + int64(draw(udpJitter))
		}
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].at < acts[j].at })
	return acts
}

// udpCrash is the verdict on one injected crash.
type udpCrash struct {
	cluster, seq int
	detected     bool
	latency      time.Duration
	falseBefore  int
	// How late the generator ran at the crash and at the restart, for
	// telling a stalled host from a protocol fault when a check fails.
	crashLagUS, restartLagUS float64
}

// inject runs the schedule: it sleeps until each action is due, records
// how late it ran, and crashes or restarts. A restart first files the
// verdict on the crash it ends.
func (f *udpFleet) inject(acts []udpAction, start time.Time) (verdicts []udpCrash, lagUS []float64, err error) {
	for _, a := range acts {
		due := start.Add(a.at)
		sleepUntil(due)
		lag := float64(wallSince(due)) / float64(time.Microsecond)
		lagUS = append(lagUS, lag)
		c := f.clusters[a.cluster]
		if !a.restart {
			c.mu.Lock()
			c.victim, c.due, c.crashed, c.detected, c.crashLagUS = a.victim, due, true, false, lag
			c.mu.Unlock()
			c.nodes[a.victim].Crash()
			continue
		}
		c.mu.Lock()
		verdicts = append(verdicts, udpCrash{cluster: c.id, seq: a.seq, detected: c.detected, latency: c.latency,
			falseBefore: c.falseSuspects, crashLagUS: c.crashLagUS, restartLagUS: lag})
		c.crashed, c.falseSuspects = false, 0
		c.mu.Unlock()
		for id := len(c.nodes) - 1; id >= 0; id-- {
			m, err := c.machine(core.ProcID(id))
			if err != nil {
				return nil, nil, err
			}
			if err := c.nodes[id].Restart(m); err != nil {
				return nil, nil, err
			}
		}
	}
	return verdicts, lagUS, nil
}

func runUDP(e env) (*outcome, error) {
	out := &outcome{opName: "heartbeat", layers: newLayers()}
	baseGoroutines := runtime.NumGoroutine()
	var hk *udpHooks
	if e.trace {
		hk = &udpHooks{}
	}
	var built []*udpFleet
	f, err := timeSetup(out, 27, func() (*udpFleet, error) {
		f, err := newUDPFleet(nil)
		if err == nil {
			built = append(built, f)
		}
		return f, err
	})
	if err != nil {
		return nil, err
	}
	for _, old := range built[:len(built)-1] {
		old.close()
	}
	out.input = map[string]any{
		"clusters":  map[string]any{"binary": udpBinary, "static": udpStatic, "static_participants": udpStaticN},
		"endpoints": f.endpoints, "tick_ms": float64(udpTick) / float64(time.Millisecond),
		"tmin": udpTMin, "tmax": udpTMax, "loss": 0, "transport": "UDP loopback, one transport per cluster",
		"loop": "open", "injection": fmt.Sprintf("per cluster: first crash at %d+[0,%d) ticks, restart %d ticks after each crash, next crash %d+[0,%d) ticks after the restart",
			udpWarm, udpJitter, udpRestart, udpSettle, udpJitter),
	}
	window := time.Duration(e.seconds * float64(time.Second))
	if e.trace {
		window /= 2
	}
	pass, err := runUDPPass(e, out, f, window)
	if err != nil {
		return nil, err
	}
	out.report = pass.report(out)
	if e.trace {
		untraced := float64(pass.sends) / pass.wall.Seconds()
		tf, err := newUDPFleet(hk)
		if err != nil {
			return nil, err
		}
		tp, err := runUDPPass(e, nil, tf, window)
		if err != nil {
			return nil, err
		}
		l := out.layers
		l["trace.overhead_pct"] = overheadPct(untraced, float64(tp.sends)/tp.wall.Seconds())
		l["netem.udp_sends"] = float64(hk.sends.calls.Load())
		l["netem.udp_send_ns"] = hk.sends.nsPerCall()
		l["netem.udp_deliveries"] = float64(hk.deliveries.calls.Load())
		l["detector.deliver_ns"] = hk.deliveries.nsPerCall()
		var late stats.Sample
		hk.clock.mu.Lock()
		for _, v := range hk.clock.lateUS {
			late.Add(v)
		}
		hk.clock.mu.Unlock()
		l["detector.timer_late_us_p50"], _ = late.Percentile(50)
		l["detector.timer_late_us_p99"], _ = late.Percentile(99)
		l["udp.injector_lag_us_p99"] = tp.lagP99
		addGoLayers(l, pass.g0, pass.g1, pass.sends)
	}

	// Every goroutine the run started must be gone once the transports
	// are closed and the last timers have drained.
	leaked := 0
	for wait := 0; wait < 50; wait++ {
		if leaked = runtime.NumGoroutine() - baseGoroutines; leaked <= 0 {
			break
		}
		wallSleep(10 * time.Millisecond)
	}
	leaked = max(leaked, 0)
	out.layers["go.goroutines_leaked"] = float64(leaked)
	out.check(leaked == 0, "%d goroutines still running after shutdown", leaked)
	return out, nil
}

// udpPass is one timed run of a started fleet.
type udpPass struct {
	sends    int64
	wall     time.Duration
	verdicts []udpCrash
	lagP99   float64
	g0, g1   goStats
	cpuEPS   []float64
	endpoint int
}

// runUDPPass starts the fleet, injects the schedule over length and
// shuts the fleet down. Given an outcome, it also checks every crash and
// fills in the wall, CPU, heap and operation figures.
func runUDPPass(e env, out *outcome, f *udpFleet, length time.Duration) (*udpPass, error) {
	p := &udpPass{endpoint: f.endpoints}
	acts := udpSchedule(e.seed, f.clusters, length)
	var w *window
	if out != nil {
		w = startWindow()
	}
	p.g0 = readGoStats()
	// CPU per endpoint-second, sampled each second while the run lasts.
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		last := processCPU()
		tick := wallTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				now := processCPU()
				p.cpuEPS = append(p.cpuEPS, float64((now-last).Microseconds())/float64(f.endpoints))
				last = now
			}
		}
	}()
	start := wallNow()
	if err := f.start(); err != nil {
		close(stop)
		sampler.Wait()
		f.close()
		return nil, err
	}
	verdicts, lag, err := f.inject(acts, start)
	if err == nil {
		sleepUntil(start.Add(length))
	}
	p.wall = wallSince(start)
	p.sends = f.sends.Load()
	close(stop)
	sampler.Wait()
	p.g1 = readGoStats()
	if out != nil {
		w.stop(out)
		out.ops = p.sends
	}
	f.close()
	if err != nil {
		return nil, err
	}
	p.verdicts = verdicts
	var lg stats.Sample
	for _, v := range lag {
		lg.Add(v)
	}
	p.lagP99, _ = lg.Percentile(99)
	if out != nil {
		for _, v := range verdicts {
			out.check(v.detected && v.falseBefore == 0,
				"cluster %d crash %d: detected=%v, %d suspicions of a live peer before it (generator %.0f us late at the crash, %.0f us at the restart)",
				v.cluster, v.seq, v.detected, v.falseBefore, v.crashLagUS, v.restartLagUS)
		}
	}
	return p, nil
}

func (p *udpPass) report(out *outcome) []summary {
	var lats []float64
	for _, v := range p.verdicts {
		if v.detected {
			lats = append(lats, float64(v.latency)/float64(udpTick))
		}
	}
	falseSusp := 0
	for _, v := range p.verdicts {
		falseSusp += v.falseBefore
	}
	ticks := p.wall.Seconds() * float64(time.Second/udpTick)
	endpointTicks := float64(p.endpoint) * ticks
	bound := core.Config{TMin: udpTMin, TMax: udpTMax}.CoordinatorDetectionBound()
	note := fmt.Sprintf("wall time from when the crash was due to the coordinator's suspicion, over the tick length; bound 3*tmax-tmin = %d ticks", bound)
	rep := []summary{summarise("cpu_us_per_endpoint_s", "us", p.cpuEPS)}
	rep = append(rep, latency("detect_p50_ticks", "detect_p99_ticks", "ticks", lats, note)...)
	return append(rep,
		one("beats_per_tick", "1/tick", float64(p.sends)/endpointTicks),
		one("false_suspicion_rate", "per 1e6 endpoint-ticks", float64(falseSusp)/endpointTicks*1e6),
		one("injector_lag_us_p99", "us", p.lagP99),
		summarise("setup_s", "s", out.setup),
		one("peak_heap_mb", "MB", float64(out.peakHeap)/(1<<20)),
	)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/netem"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer; nothing inside the program is instrumented. A span is
// either a timed interval (a trial, a RunUntil, a model check) or a folded
// call span: every call of one kind under one parent (machine steps,
// observer callbacks) summed into a single record, so that a run of
// millions of steps stays small in memory. Self time is a span's
// duration minus the durations of its children.

// span is one recorded span. Start and End are nanoseconds since the
// tracer's epoch; Dur is End-Start for an interval and the summed call
// time for a folded span (Calls > 0).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trial  int64  `json:"trial"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Dur    int64  `json:"dur_ns"`
	Calls  int64  `json:"calls,omitempty"`
}

// tracer keeps every span in memory until write.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: wallNow()} }

func (t *tracer) now() int64 { return int64(wallSince(t.epoch)) }

// trialTrace records the spans of one trial (cluster, cell, epoch) on one
// goroutine; finish hands them to the tracer under its lock.
type trialTrace struct {
	t     *tracer
	trial int64
	spans []span
}

func (t *tracer) trial(id int64) *trialTrace { return &trialTrace{t: t, trial: id} }

// begin opens an interval span under parent (-1 for a root) and returns
// its index.
func (tt *trialTrace) begin(name string, parent int) int {
	tt.spans = append(tt.spans, span{Name: name, Parent: parent, Trial: tt.trial, Start: tt.t.now()})
	return len(tt.spans) - 1
}

// end closes the interval span i.
func (tt *trialTrace) end(i int) {
	s := &tt.spans[i]
	s.End = tt.t.now()
	s.Dur = s.End - s.Start
}

// fold records a folded call span under parent.
func (tt *trialTrace) fold(name string, parent int, acc *callAcc) {
	if acc.calls == 0 {
		return
	}
	tt.spans = append(tt.spans, span{
		Name: name, Parent: parent, Trial: tt.trial,
		Start: acc.first, End: acc.last, Dur: acc.ns, Calls: acc.calls,
	})
}

// finish moves the trial's spans into the tracer, renumbering them.
func (tt *trialTrace) finish() {
	tt.t.mu.Lock()
	defer tt.t.mu.Unlock()
	base := len(tt.t.spans)
	for i, s := range tt.spans {
		s.ID = base + i
		if s.Parent >= 0 {
			s.Parent += base
		}
		tt.t.spans = append(tt.t.spans, s)
	}
	tt.spans = tt.spans[:0]
}

// selfTime sums, over all spans named name, the duration minus the
// durations of their children, and counts those spans.
func (t *tracer) selfTime(name string) (ns int64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.Dur - child[s.ID]
			n++
		}
	}
	return ns, n
}

// total sums the duration and calls of every span named name.
func (t *tracer) total(name string) (ns, calls int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.Dur
			calls += max(s.Calls, 1)
		}
	}
	return ns, calls
}

// write stores every span, one JSON object a line, under .bench_out/ in
// the working directory.
func (t *tracer) write(workload string, seed int64) error {
	dir := ".bench_out"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// callAcc accumulates the calls of one folded span on one goroutine.
type callAcc struct {
	calls, ns   int64
	first, last int64
}

func (a *callAcc) add(t *tracer, start int64) {
	end := t.now()
	if a.calls == 0 {
		a.first = start
	}
	a.calls++
	a.ns += end - start
	a.last = end
}

// timedMachine times every step of a protocol machine. Status is not a
// step and passes straight through.
type timedMachine struct {
	inner core.Machine
	t     *tracer
	acc   *callAcc
}

func (m *timedMachine) Start(now core.Tick) []core.Action {
	t0 := m.t.now()
	a := m.inner.Start(now)
	m.acc.add(m.t, t0)
	return a
}

func (m *timedMachine) OnTimer(id core.TimerID, now core.Tick) []core.Action {
	t0 := m.t.now()
	a := m.inner.OnTimer(id, now)
	m.acc.add(m.t, t0)
	return a
}

func (m *timedMachine) OnBeat(b core.Beat, now core.Tick) []core.Action {
	t0 := m.t.now()
	a := m.inner.OnBeat(b, now)
	m.acc.add(m.t, t0)
	return a
}

func (m *timedMachine) Crash(now core.Tick) []core.Action {
	t0 := m.t.now()
	a := m.inner.Crash(now)
	m.acc.add(m.t, t0)
	return a
}

func (m *timedMachine) Status() core.Status { return m.inner.Status() }

// timedObserver times every call into an Observer.
type timedObserver struct {
	inner detector.Observer
	t     *tracer
	acc   *callAcc
}

func (o *timedObserver) ObserveStep(id netem.NodeID, now core.Tick, tr detector.Trigger, actions []core.Action) {
	t0 := o.t.now()
	o.inner.ObserveStep(id, now, tr, actions)
	o.acc.add(o.t, t0)
}

// counter is a concurrent call counter with summed nanoseconds, for the
// wall-clock path where calls arrive on many goroutines.
type counter struct {
	calls, ns atomic.Int64
}

func (c *counter) add(start time.Time) {
	c.calls.Add(1)
	c.ns.Add(int64(wallSince(start)))
}

func (c *counter) nsPerCall() float64 {
	if n := c.calls.Load(); n > 0 {
		return float64(c.ns.Load()) / float64(n)
	}
	return 0
}

// timedTransport times sends, and wraps each handler installed at
// Register so that deliveries are timed too.
type timedTransport struct {
	inner      netem.Transport
	sends      *counter
	deliveries *counter
}

func (t *timedTransport) Send(from, to netem.NodeID, payload []byte) error {
	start := wallNow()
	err := t.inner.Send(from, to, payload)
	t.sends.add(start)
	return err
}

func (t *timedTransport) Broadcast(from netem.NodeID, payload []byte) error {
	start := wallNow()
	err := t.inner.Broadcast(from, payload)
	t.sends.add(start)
	return err
}

func (t *timedTransport) Register(id netem.NodeID, h netem.Handler) error {
	return t.inner.Register(id, func(m netem.Message) {
		start := wallNow()
		h(m)
		t.deliveries.add(start)
	})
}

// lateClock records how late each timer callback starts relative to the
// time it was due.
type lateClock struct {
	inner   detector.Clock
	tickLen time.Duration
	mu      sync.Mutex
	lateUS  []float64
}

func (c *lateClock) Now() core.Tick { return c.inner.Now() }

func (c *lateClock) After(d core.Tick, fn func()) (cancel func()) {
	due := wallNow().Add(time.Duration(d) * c.tickLen)
	//lint:allow noalloc-closure wall-clock timer wrapper of the traced udp run, like detector.WallClock.After
	return c.inner.After(d, func() {
		late := wallSince(due)
		c.mu.Lock()
		c.lateUS = append(c.lateUS, float64(late)/float64(time.Microsecond))
		c.mu.Unlock()
		fn() //lint:allow noalloc-closure the node's timer callback, as detector.WallClock.After runs it
	})
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric a traced run prints, for
// every workload; a layer the workload does not call reports 0. LAYERS.md
// says which end-to-end metric each should move.
var layerMetrics = []layerMetric{
	{"trace.overhead_pct", "%"},
	{"sim.events", "count"},
	{"core.steps", "count"},
	{"core.step_ns", "ns"},
	{"core.allocs_per_step", "count"},
	{"conform.events", "count"},
	{"conform.observe_ns", "ns"},
	{"conform.allocs_per_event", "count"},
	{"conform.frontier_max", "count"},
	{"conform.shed_events", "count"},
	{"conform.spec_build_s", "s"},
	{"runtime.self_ns_per_event", "ns"},
	{"ledger.bare_ns_per_event", "ns"},
	{"ledger.faults_ns_per_event", "ns"},
	{"ledger.stream_ns_per_event", "ns"},
	{"ledger.heal_ns_per_event", "ns"},
	{"ledger.bare_allocs_per_event", "count"},
	{"ledger.faults_allocs_per_event", "count"},
	{"ledger.stream_allocs_per_event", "count"},
	{"ledger.heal_allocs_per_event", "count"},
	{"faults.ns_per_send", "ns"},
	{"detector.supervisor_ns_per_event", "ns"},
	{"netem.sent", "count"},
	{"netem.lost", "count"},
	{"faults.intercepted", "count"},
	{"faults.dropped", "count"},
	{"detector.suspects", "count"},
	{"detector.confirms", "count"},
	{"detector.restarts", "count"},
	{"models.build_ns", "ns"},
	{"mc.cells", "count"},
	{"mc.states", "count"},
	{"mc.transitions", "count"},
	{"mc.check_ns_per_state", "ns"},
	{"mc.big_ns_per_state", "ns"},
	{"mc.big_serial_ns_per_state", "ns"},
	{"mc.parallel_speedup", "ratio"},
	{"mc.count_ns_per_state", "ns"},
	{"mc.allocs_per_state", "count"},
	{"mc.lts_ns_per_state", "ns"},
	{"mc.minimise_ns_per_state", "ns"},
	{"ensemble.rounds", "count"},
	{"ensemble.ns_per_round", "ns"},
	{"ensemble.allocs_per_round", "count"},
	{"fleet.beats", "count"},
	{"fleet.ns_per_beat", "ns"},
	{"fleet.epoch_p50_ms", "ms"},
	{"fleet.epoch_p99_ms", "ms"},
	{"fleet.allocs_per_epoch", "count"},
	{"fleet.missed_deadlines", "count"},
	{"fleet.stale_children", "count"},
	{"netem.udp_sends", "count"},
	{"netem.udp_send_ns", "ns"},
	{"netem.udp_deliveries", "count"},
	{"detector.deliver_ns", "ns"},
	{"detector.timer_late_us_p50", "us"},
	{"detector.timer_late_us_p99", "us"},
	{"udp.injector_lag_us_p99", "us"},
	{"go.goroutines_leaked", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.alloc_bytes_per_op", "B"},
}

func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return "count"
}

// newLayers returns a per-layer metric map with every metric at 0.
func newLayers() map[string]float64 {
	l := make(map[string]float64, len(layerMetrics))
	for _, m := range layerMetrics {
		l[m.name] = 0
	}
	return l
}

// overheadPct is the tracing overhead: how much lower the traced rate is
// than the untraced one, in percent of the traced rate.
func overheadPct(untracedRate, tracedRate float64) float64 {
	if tracedRate <= 0 {
		return 0
	}
	return (untracedRate/tracedRate - 1) * 100
}

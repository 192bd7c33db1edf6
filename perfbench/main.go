// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload over the public APIs of the heartbeat stack, checks every
// output it produces, and prints one JSON result as its last line:
//
//	perfbench --workload campaign --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics that every
// workload reports (set-up time, peak heap, CPU per operation, operations
// per second). With --trace 1 the same workload runs once untraced and
// once with timing wrappers around each layer, and the result carries the
// per-layer metrics instead; a layer a workload does not call reports 0.
// The line before the result is a report with the run's metadata and the
// paper's quantities (detection latency, beats per tick, false-suspicion
// rate) as medians with quartiles and sample counts. LAYERS.md maps each
// per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is what a workload gets from the command line.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	// workers is the goroutine count every parallel layer is given:
	// GOMAXPROCS, which defaults to the CPU count.
	workers int
}

// outcome is what a workload hands back for reporting.
type outcome struct {
	// setup holds one duration per set-up repetition, in seconds.
	setup []float64
	// ops is the number of operations completed in the timed window;
	// opName names the unit (trial, state, round, heartbeat).
	ops    int64
	opName string
	wall   time.Duration
	cpu    time.Duration
	// peakHeap is the peak live heap of the timed window (see stop),
	// taken at percentile heapPct of the collections, 95 when 0.
	peakHeap uint64
	heapPct  float64
	// attempted and failed count output checks; failures keeps the
	// first few messages.
	attempted, failed int64
	failures          []string
	// report holds the paper's quantities and the workload's named
	// throughput figures, in the order they are printed.
	report []summary
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	// input states the input size the workload ran at.
	input map[string]any
}

// check records one output check.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// summary is one reported quantity: the median with its quartiles and the
// sample count it was taken over.
type summary struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	P99    float64 `json:"p99,omitempty"`
	N      int     `json:"n"`
	Note   string  `json:"note,omitempty"`
}

// summarise takes the median, quartiles and (given at least 1000
// samples, so that ten lie beyond it) the 99th percentile of values.
// Quartiles and percentiles that are zero are left out of the JSON.
func summarise(name, unit string, values []float64) summary {
	s := summary{Name: name, Unit: unit, N: len(values)}
	if len(values) == 0 {
		return s
	}
	var sm stats.Sample
	for _, v := range values {
		sm.Add(v)
	}
	s.Median, _ = sm.Percentile(50)
	s.Q1, _ = sm.Percentile(25)
	s.Q3, _ = sm.Percentile(75)
	if len(values) >= 1000 {
		s.P99, _ = sm.Percentile(99)
	}
	return s
}

// one reports a single exact figure (a count or a whole-run ratio).
func one(name, unit string, v float64) summary {
	return summary{Name: name, Unit: unit, Median: v, Q1: v, Q3: v, N: 1}
}

// latency reports a latency sample as two figures: the
// median with its quartiles, and the 99th percentile on its own.
func latency(name50, name99, unit string, values []float64, note string) []summary {
	s := summarise(name50, unit, values)
	s.Note = note
	p99 := summary{Name: name99, Unit: unit, Median: s.P99, P99: s.P99, N: s.N, Note: note}
	if s.N < 1000 {
		p99.Note = "fewer than 1000 samples: no 99th percentile with ten beyond it; " + note
	}
	s.P99 = 0
	return []summary{s, p99}
}

type workloadFunc func(env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"campaign":   runCampaign,
	"verify":     runVerify,
	"montecarlo": runMonteCarlo,
	"udp":        runUDP,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: campaign, verify, montecarlo or udp")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload campaign|verify|montecarlo|udp, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	e := env{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: runtime.GOMAXPROCS(0)}
	out, err := w(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", *name, f)
	}

	failRatio := 0.0
	if out.attempted > 0 {
		failRatio = float64(out.failed) / float64(out.attempted)
	}
	report := map[string]any{
		"workload": *name,
		"meta": map[string]any{
			"seed":       *seed,
			"seconds":    *seconds,
			"trace":      *trace,
			"go":         runtime.Version(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"numcpu":     runtime.NumCPU(),
			"repeats":    len(out.setup),
			"op":         out.opName,
			"input":      out.input,
		},
		"fail_ratio": failRatio,
		"report":     out.report,
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if e.trace {
		for k, v := range out.layers {
			res.Metrics[k] = metric{Value: v, Unit: layerUnit(k)}
		}
	} else {
		res.Metrics["setup_s"] = metric{Value: median(out.setup), Unit: "s"}
		res.Metrics["peak_heap_mb"] = metric{Value: float64(out.peakHeap) / (1 << 20), Unit: "MB"}
		res.Metrics["cpu_us_per_op"] = metric{Value: float64(out.cpu.Microseconds()) / float64(out.ops), Unit: "us"}
		res.Metrics["ops_per_s"] = metric{Value: float64(out.ops) / out.wall.Seconds(), Unit: "1/s"}
	}
	if err := writeJSONLine(stdout, report); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := writeJSONLine(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

func median(xs []float64) float64 { return summarise("", "", xs).Median }

// timeSetup runs build repeats times, recording each duration (the
// median is reported as setup_s), and returns the last result.
func timeSetup[T any](out *outcome, repeats int, build func() (T, error)) (T, error) {
	var v T
	for i := 0; i < repeats; i++ {
		runtime.GC()
		start := wallNow()
		var err error
		if v, err = build(); err != nil {
			return v, err
		}
		out.setup = append(out.setup, wallSince(start).Seconds())
	}
	return v, nil
}

// window measures wall time, process CPU time and peak live heap
// between start and stop.
type window struct {
	start time.Time
	cpu0  time.Duration
	stopc chan struct{}
	done  sync.WaitGroup
	// live holds the heap marked live by each garbage collection that
	// completed in the window, plus the value at the start.
	live []float64
}

func startWindow() *window {
	runtime.GC()
	w := &window{stopc: make(chan struct{}), cpu0: processCPU()}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		tick := wallTicker(2 * time.Millisecond)
		defer tick.Stop()
		last := uint64(0)
		for {
			metrics.Read(sample)
			if c := sample[0].Value.Uint64(); c != last {
				last = c
				w.live = append(w.live, float64(sample[1].Value.Uint64()))
			}
			select {
			case <-w.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	w.start = wallNow()
	return w
}

// stop ends the window and stores wall, CPU and peak heap into out: by
// default the 95th percentile of the heap the collections in the window
// marked live. The percentile rather than the largest value, because on a
// workload with concurrent trials the largest depends on which of them
// happen to peak together.
func (w *window) stop(out *outcome) {
	out.wall = wallSince(w.start)
	out.cpu = processCPU() - w.cpu0
	close(w.stopc)
	w.done.Wait()
	var live stats.Sample
	for _, v := range w.live {
		live.Add(v)
	}
	pct := out.heapPct
	if pct == 0 {
		pct = 95
	}
	peak, _ := live.Percentile(pct) // the start value is always there
	out.peakHeap = uint64(peak)
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// deadline is the end of a timed window of env.seconds from now.
func (e env) deadline() time.Time {
	return wallNow().Add(time.Duration(e.seconds * float64(time.Second)))
}

// mallocs is the exact cumulative heap allocation count (it stops the
// world, so call it only around measured passes).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// goStats captures the Go runtime's GC figures over a pass.
type goStats struct {
	gcCycles   uint32
	allocBytes uint64
	gcCPU      float64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{gcCycles: ms.NumGC, allocBytes: ms.TotalAlloc, gcCPU: ms.GCCPUFraction}
}

// addGoLayers stores the go.* per-layer metrics for a pass that
// completed ops operations between a and b.
func addGoLayers(layers map[string]float64, a, b goStats, ops int64) {
	layers["go.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	layers["go.gc_cpu_fraction"] = b.gcCPU
	if ops > 0 {
		layers["go.alloc_bytes_per_op"] = float64(b.allocBytes-a.allocBytes) / float64(ops)
	}
}

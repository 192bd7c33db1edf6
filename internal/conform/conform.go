// Package conform checks the detector runtime against the timed-automata
// models: a differential, trace-based conformance layer in the spirit of
// runtime verification of distributed protocols.
//
// The pieces:
//
//   - A Recorder (a detector.Observer) abstracts every machine step of a
//     running cluster into the event alphabet internal/models uses for LTS
//     labels — "p[0]: send beat", "deliver beat to p[1]", "timeout p[0]",
//     "inactivate nv p[1]", … — with virtual timestamps. It works over any
//     clock; under the discrete-event simulator the recorded order is the
//     execution order.
//   - A Spec is the variant's model LTS (built monitor-free via
//     mc.BuildLTS) with unobservable labels hidden and the join-delivery
//     labels merged into the plain delivery labels (the wire does not
//     distinguish them). Spec.CheckTrace replays a recorded trace by
//     antichain simulation: a frontier of model states is advanced through
//     tau-closure, "tick" steps for time passing, and the visible labels of
//     the trace. An empty frontier is a divergence — the runtime did
//     something (or let time pass) that no model execution matches — and is
//     reported with the consumed prefix as an ASCII message sequence chart.
//   - EvaluateTrace re-evaluates the paper's requirements R1–R3 directly
//     on a recorded trace, so chaos campaigns double as spec-conformance
//     runs, and DiffVerdicts cross-checks runtime verdicts against the
//     model checker's.
//   - Explore drives seeded random walks (randomised timing constants,
//     node counts, fault schedules) through all of the above and shrinks
//     failing runs to minimal schedules.
//
// Scope: message loss is unobservable at the runtime level (a lost beat
// leaves no event), so the checker tracks the lost-versus-in-flight
// ambiguity inside the frontier. Graceful leave and process restart are
// excluded from conformance runs: the runtime's leave protocol
// (leaver-initiated, with an out-of-band coordinator acknowledgement) is
// structurally different from the model's reply-piggybacked leave, and
// restart has no model counterpart. Their events carry honest non-model
// labels, so a trace containing them is reported as divergent rather than
// silently accepted.
//
// Adaptive clusters retune their timing constants inside a verified
// envelope; no single model covers such a run. CampaignCheck.
// CheckTraceAdaptive checks those traces piecewise: each segment against
// the specification of the envelope level in force, each retune confirmed
// against the envelope's level set, and the by-design non-model events
// above classified as confirmed divergences instead of failures.
package conform

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/models"
)

// Event is one abstract runtime event: a model-alphabet label at a
// virtual time.
type Event struct {
	Time  core.Tick
	Label string
}

// LabelTick is the time-passing label of the model LTS. A Divergence with
// this label means the model forced a visible action at Time that the
// runtime did not produce.
const LabelTick = "tick"

func pname(i int) string { return fmt.Sprintf("p[%d]", i) }

// Label constructors for the shared runtime/model alphabet.
func labelDeliverToP0(from int) string {
	return fmt.Sprintf("deliver beat to p[0] from %s", pname(from))
}

func labelDeliverLeaveToP0(from int) string {
	return fmt.Sprintf("deliver leave beat to p[0] from %s", pname(from))
}

func labelDeliverToP(i int) string { return fmt.Sprintf("deliver beat to %s", pname(i)) }

func labelSendBeat(i int) string { return fmt.Sprintf("%s: send beat", pname(i)) }

func labelSendJoin(i int) string { return fmt.Sprintf("%s: send join beat", pname(i)) }

func labelSendLeave(i int) string { return fmt.Sprintf("%s: send leave beat", pname(i)) }

func labelDecideLeave(i int) string { return fmt.Sprintf("%s: decide leave", pname(i)) }

func labelInactivate(i int) string { return fmt.Sprintf("inactivate nv %s", pname(i)) }

func labelCrash(i int) string { return fmt.Sprintf("crash %s", pname(i)) }

func labelRejoin(i int) string { return fmt.Sprintf("%s: rejoin", pname(i)) }

func labelRestart(i int) string { return fmt.Sprintf("%s: restart", pname(i)) }

func labelDeliverLeaveAck(i int) string { return fmt.Sprintf("deliver leave ack to %s", pname(i)) }

func labelSendLeaveAck(to int) string { return fmt.Sprintf("p[0]: send leave ack to %s", pname(to)) }

const labelTimeoutP0 = "timeout p[0]"

// procLabel names a one-process label of the alphabet.
type procLabel int

const (
	lDeliverToP0 procLabel = iota
	lDeliverLeaveToP0
	lDeliverToP
	lDeliverLeaveAck
	lSendBeat
	lSendJoin
	lSendLeave
	lSendLeaveAck
	lDecideLeave
	lInactivate
	lCrash
	lRejoin
	lRestart
	numProcLabels
)

// procLabelOf formats each procLabel; labelTable caches its results.
var procLabelOf = [numProcLabels]func(int) string{
	lDeliverToP0:      labelDeliverToP0,
	lDeliverLeaveToP0: labelDeliverLeaveToP0,
	lDeliverToP:       labelDeliverToP,
	lDeliverLeaveAck:  labelDeliverLeaveAck,
	lSendBeat:         labelSendBeat,
	lSendJoin:         labelSendJoin,
	lSendLeave:        labelSendLeave,
	lSendLeaveAck:     labelSendLeaveAck,
	lDecideLeave:      labelDecideLeave,
	lInactivate:       labelInactivate,
	lCrash:            labelCrash,
	lRejoin:           labelRejoin,
	lRestart:          labelRestart,
}

// labelTable holds the labels of one model configuration, built once so
// that abstracting a live machine step formats nothing. A process index
// or operating point outside the table falls back to the constructor, so
// the strings are the same either way; the zero table always falls back.
// The table also numbers its labels, so that incident tails can be
// packed (see packTail).
type labelTable struct {
	proc    [numProcLabels][]string // indexed by process, 0..N
	retunes []retuneLabel           // one per envelope level

	names []string         // every label above, and labelTimeoutP0
	ids   map[string]uint8 // index into names, for the first 256
}

type retuneLabel struct {
	tmin, tmax core.Tick
	label      string
}

// noLabels is the empty table, for observers without a model
// configuration (Recorder).
var noLabels labelTable

// newLabelTable builds the labels of processes 0..n and, for a non-nil
// envelope, of the retunes to each of its operating points.
func newLabelTable(n int, env *models.Envelope) *labelTable {
	t := &labelTable{}
	for k, mk := range procLabelOf {
		t.proc[k] = make([]string, n+1)
		for i := range t.proc[k] {
			t.proc[k][i] = mk(i)
		}
	}
	if env != nil {
		for level := 0; level < env.Levels(); level++ {
			tmin, tmax := env.Point(level)
			r := retuneLabel{tmin: core.Tick(tmin), tmax: core.Tick(tmax)}
			r.label = labelRetune(r.tmin, r.tmax)
			t.retunes = append(t.retunes, r)
		}
	}
	for _, labels := range t.proc {
		t.names = append(t.names, labels...)
	}
	for _, r := range t.retunes {
		t.names = append(t.names, r.label)
	}
	t.names = append(t.names, labelTimeoutP0)
	t.ids = make(map[string]uint8, len(t.names))
	for i, name := range t.names {
		if _, dup := t.ids[name]; !dup && i <= math.MaxUint8 {
			t.ids[name] = uint8(i)
		}
	}
	return t
}

// packTail encodes a run of events in two bytes each: the label's index
// in the table and the ticks since the previous event. It reports false
// when a label is not in the table, or when time runs backwards or jumps
// more than 255 ticks between two events.
func (t *labelTable) packTail(evs []Event) ([]uint16, bool) {
	for k, ev := range evs {
		if _, ok := t.ids[ev.Label]; !ok {
			return nil, false
		}
		if k > 0 {
			if d := ev.Time - evs[k-1].Time; d < 0 || d > math.MaxUint8 {
				return nil, false
			}
		}
	}
	out := make([]uint16, len(evs))
	for k, ev := range evs {
		d := core.Tick(0)
		if k > 0 {
			d = ev.Time - evs[k-1].Time
		}
		out[k] = uint16(t.ids[ev.Label])<<8 | uint16(d)
	}
	return out, true
}

// unpackTail inverts packTail, given the time of the first event.
func (t *labelTable) unpackTail(packed []uint16, first core.Tick) []Event {
	out := make([]Event, len(packed))
	at := first
	for k, p := range packed {
		at += core.Tick(p & math.MaxUint8)
		out[k] = Event{Time: at, Label: t.names[p>>8]}
	}
	return out
}

// of returns label k of process i.
func (t *labelTable) of(k procLabel, i int) string {
	if i >= 0 && i < len(t.proc[k]) {
		return t.proc[k][i]
	}
	return procLabelOf[k](i)
}

// retune returns the retune label of an operating point.
func (t *labelTable) retune(tmin, tmax core.Tick) string {
	for _, r := range t.retunes {
		if r.tmin == tmin && r.tmax == tmax {
			return r.label
		}
	}
	return labelRetune(tmin, tmax)
}

// labelRetune is the adaptive coordinator's level transition. It is not
// part of any single model's alphabet — the piecewise checker
// (CheckTraceAdaptive) consumes it by switching to the specification of
// the target operating point.
const retunePrefix = "p[0]: retune to ("

func labelRetune(tmin, tmax core.Tick) string {
	return fmt.Sprintf("p[0]: retune to (%d,%d)", tmin, tmax)
}

// parseRetune extracts the operating point of a retune label. It is
// strict: the label must round-trip through labelRetune exactly, so a
// malformed label cannot be confirmed as an envelope transition, which
// would switch the piecewise checker to another level's specification and
// leave an all-states frontier pending in place of the tracked one.
// (FuzzStreamChecker caught an earlier Sscanf version accepting trailing
// junk: "p[0]: retune to (2,4)x" parsed as a valid retune.) It allocates
// nothing, so an in-envelope retune on the live observer path is free.
func parseRetune(label string) (int32, int32, bool) {
	rest, ok := strings.CutPrefix(label, retunePrefix)
	if !ok {
		return 0, 0, false
	}
	comma := strings.IndexByte(rest, ',')
	if comma < 0 || !strings.HasSuffix(rest, ")") {
		return 0, 0, false
	}
	tmin, ok1 := parseCanonicalInt32(rest[:comma])
	tmax, ok2 := parseCanonicalInt32(rest[comma+1 : len(rest)-1])
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	return tmin, tmax, true
}

// parseCanonicalInt32 parses an int32 written exactly as %d renders it:
// an optional minus sign, no plus sign, no leading zeros, no "-0".
func parseCanonicalInt32(s string) (int32, bool) {
	digits := strings.TrimPrefix(s, "-")
	neg := len(digits) < len(s)
	if digits == "" || len(digits) > 10 || (digits[0] == '0' && (len(digits) > 1 || neg)) {
		return 0, false
	}
	var v int64
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, false
	}
	return int32(v), true
}

// parseLabel matches a label against a one-verb format like
// "crash p[%d]", extracting the process index.
func parseLabel(label, format string, proc *int) bool {
	n, err := fmt.Sscanf(label, format, proc)
	return err == nil && n == 1
}

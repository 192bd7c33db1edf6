package conform

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/trace"
)

// Divergence reports the first point where a recorded trace leaves the
// model's behaviour.
type Divergence struct {
	Cfg models.Config
	// Events is the full recorded trace; Events[:Index] was consumed
	// before the divergence.
	Events []Event
	// Index is the offending event's position, or len(Events) when the
	// trace ran out while the model still forced an action.
	Index int
	// Time is the virtual time of the divergence.
	Time core.Tick
	// Label is the runtime event no model execution matches; LabelTick
	// when the model refused to let time pass (a forced visible action the
	// runtime never produced).
	Label string
	// Expected lists the visible labels (and possibly LabelTick) the model
	// allows at the divergence point, sorted.
	Expected []string
}

// Error implements error, so a Divergence can travel as one.
func (d *Divergence) Error() string {
	if d.Label == LabelTick {
		return fmt.Sprintf("conform: %v diverges at t=%d: model forces one of [%s], runtime produced nothing",
			d.Cfg.Variant, d.Time, strings.Join(d.Expected, ", "))
	}
	return fmt.Sprintf("conform: %v diverges at t=%d (event %d): runtime produced %q, model allows [%s]",
		d.Cfg.Variant, d.Time, d.Index, d.Label, strings.Join(d.Expected, ", "))
}

// mscTail bounds the rendered prefix of a divergence report.
const mscTail = 40

// Render writes a human-readable divergence report: the consumed trace
// prefix as an ASCII message sequence chart (internal/trace), then the
// offending step and what the model would have allowed.
func (d *Divergence) Render(w io.Writer, title string) error {
	prefix := d.Events[:d.Index]
	skipped := 0
	if len(prefix) > mscTail {
		skipped = len(prefix) - mscTail
		prefix = prefix[skipped:]
	}
	steps := make([]mc.Step, 0, len(prefix))
	for _, ev := range prefix {
		steps = append(steps, mc.Step{Label: ev.Label, Time: int(ev.Time)})
	}
	if skipped > 0 {
		if _, err := fmt.Fprintf(w, "… %d earlier events omitted …\n", skipped); err != nil {
			return err
		}
	}
	if err := trace.Render(w, title, steps); err != nil {
		return err
	}
	if d.Label == LabelTick {
		if _, err := fmt.Fprintf(w, "\nstuck at t=%d: the model forces a visible action before time can pass\n", d.Time); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(w, "\ndivergence at t=%d (event %d): runtime produced %q\n", d.Time, d.Index, d.Label); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "model allows: %s\n", strings.Join(d.Expected, ", "))
	return err
}

// checker advances a frontier (antichain) of model states over a trace.
// mark is a generation-stamped membership set, so no clearing between
// steps.
type checker struct {
	sp   *Spec
	cur  []int32
	next []int32
	mark []int32
	gen  int32
}

func newChecker(sp *Spec) *checker {
	c := &checker{sp: sp, mark: make([]int32, sp.NumStates)}
	c.gen++
	c.mark[0] = c.gen
	c.cur = c.closure(append(c.cur, 0))
	return c
}

// seedAll restarts the frontier from every state of sp, the piecewise
// checker's over-approximation after a confirmed divergence (a retune or
// a by-design non-model event): the runtime's exact model state is no
// longer known, so the suffix is checked against every possible
// continuation, which can only under-report, never fabricate, further
// divergences. The frontier is built into the existing buffers when their
// capacity fits, so a reseed at a level change allocates nothing after
// the first. Every state is a member and the set is trivially
// tau-closed; step bumps the generation before it reads any mark, so no
// membership stamps are written.
func (c *checker) seedAll(sp *Spec) {
	n := sp.NumStates
	c.sp = sp
	if cap(c.mark) < n {
		c.mark = make([]int32, n)
	}
	c.mark = c.mark[:n]
	if cap(c.cur) < n && cap(c.next) >= n {
		c.cur, c.next = c.next, c.cur
	}
	if cap(c.cur) < n {
		c.cur = make([]int32, n)
	}
	c.cur = c.cur[:n]
	for s := range c.cur {
		c.cur[s] = int32(s)
	}
}

// closure extends set (whose members are marked with the current
// generation) with everything reachable by tau steps, in place.
func (c *checker) closure(set []int32) []int32 {
	sp := c.sp
	for i := 0; i < len(set); i++ {
		s := set[i]
		for j := sp.tauOff[s]; j < sp.tauOff[s+1]; j++ {
			t := sp.tauTo[j]
			if c.mark[t] != c.gen {
				c.mark[t] = c.gen
				set = append(set, t)
			}
		}
	}
	return set
}

// step advances the frontier over one visible label (LabelTick for time).
// It reports false — leaving the frontier untouched, so Expected can be
// computed — when no model state can take the label.
func (c *checker) step(label int32) bool {
	sp := c.sp
	c.gen++
	out := c.next[:0]
	for _, s := range c.cur {
		for j := sp.visOff[s]; j < sp.visOff[s+1]; j++ {
			e := sp.vis[j]
			if e.label == label && c.mark[e.to] != c.gen {
				c.mark[e.to] = c.gen
				out = append(out, e.to)
			}
		}
	}
	if len(out) == 0 {
		c.next = out
		return false
	}
	out = c.closure(out)
	c.next = c.cur
	c.cur = out
	return true
}

// enabled returns the sorted visible labels the current frontier can take.
func (c *checker) enabled() []string {
	sp := c.sp
	seen := make(map[int32]bool, 8)
	var out []string
	for _, s := range c.cur {
		for j := sp.visOff[s]; j < sp.visOff[s+1]; j++ {
			if id := sp.vis[j].label; !seen[id] {
				seen[id] = true
				out = append(out, sp.labelNames[id])
			}
		}
	}
	sort.Strings(out)
	return out
}

// CheckTrace replays a recorded trace against the specification and
// returns the first divergence, or nil when every event (and the passage
// of time up to horizon) is matched by some model execution. Events must
// be in recorded order; an event timestamped earlier than the checker's
// current time (possible under wall clocks) is replayed at the current
// time. It is a thin offline loop over the incremental streamEngine, so
// replaying a recorded trace and streaming it (StreamChecker) return
// identical results by construction.
func (sp *Spec) CheckTrace(events []Event, horizon core.Tick) *Divergence {
	e := newStreamEngine(sp, 0)
	for i, ev := range events {
		// A plain engine's feed never errors (no level switches).
		if d, _ := e.feed(i, ev); d != nil {
			return d.divergence(events)
		}
	}
	if d := e.finish(horizon, len(events)); d != nil {
		return d.divergence(events)
	}
	return nil
}

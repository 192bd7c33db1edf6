package main

import (
	"testing"

	"repro/internal/detector"
)

// TestWrappersTransparent: a seeded campaign trial run with every timing
// wrapper on (machine, observer, step recorder) and with all of them off
// gives identical Cluster.Events, StreamResult and link counters, so the
// traced run measures the same execution as the untraced one.
func TestWrappersTransparent(t *testing.T) {
	s, err := newCampaignSetup()
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 3; id++ {
		same, err := wrappersTransparent(s, campaignInput(7, id))
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Fatalf("trial %d: timing wrappers changed the run", id)
		}
	}
	// The comparison is not vacuous: two different trials differ.
	a, err := runTrial(s, campaignInput(7, 0), fullStack, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTrial(s, campaignInput(7, 1), fullStack, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.log) == len(b.log) && a.net.Total == b.net.Total {
		t.Fatal("two different trials gave the same events and counters")
	}
}

// TestJudgeDetection pins the campaign's crash verdict: the delay runs
// from the coordinator's crash to the inactivation of the last
// participant that was up at the crash, the bound is the responders'
// watchdog bound 2*8, and a coordinator suspicion of a live peer is
// counted as false.
func TestJudgeDetection(t *testing.T) {
	in := trialInput{crashAt: 900}
	events := []detector.Event{
		{Time: 300, Node: 0, Kind: detector.EventSuspect, Proc: 1},             // live peer: false
		{Time: 400, Node: 1, Kind: detector.EventInactivated},                  // p1 down
		{Time: 410, Node: 0, Kind: detector.EventSuspect, Proc: 1},             // down peer: true
		{Time: 500, Node: 1, Kind: detector.EventRestarted},                    // p1 back
		{Time: 900, Node: 0, Kind: detector.EventInactivated, Voluntary: true}, // the crash
		{Time: 912, Node: 1, Kind: detector.EventInactivated},                  // p1 detects
		{Time: 914, Node: 2, Kind: detector.EventInactivated},                  // p2 detects: done
		{Time: 917, Node: 1, Kind: detector.EventRestarted},                    // healed
		{Time: 933, Node: 1, Kind: detector.EventInactivated},                  // again: ignored
	}
	delay, bound, falseSuspects := judgeDetection(events, in)
	if delay != 14 || bound != 16 || falseSuspects != 1 {
		t.Fatalf("delay=%d bound=%d false=%d, want 14, 16 (2*8), 1", delay, bound, falseSuspects)
	}
	if delay, _, _ = judgeDetection(events[:6], in); delay != -1 {
		t.Fatalf("p2 never detected: delay=%d, want -1", delay)
	}
	// A participant already down at the crash has nothing to detect.
	down := append([]detector.Event{{Time: 880, Node: 2, Kind: detector.EventInactivated}}, events[4:6]...)
	if delay, _, _ = judgeDetection(down, in); delay != 12 {
		t.Fatalf("p2 down before the crash: delay=%d, want 12", delay)
	}
}

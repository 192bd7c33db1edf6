package main

import "time"

// The benchmark's only reads of physical time. A benchmark measures the
// program on the wall clock by definition; every other file gets time
// from these functions, so that the wall-clock boundary is this file.

// wallNow returns the current wall-clock time.
func wallNow() time.Time {
	return time.Now() //lint:allow determinism benchmark clock
}

// wallSince returns the wall time elapsed since t.
func wallSince(t time.Time) time.Duration {
	return time.Since(t) //lint:allow determinism benchmark clock
}

// sleepUntil blocks until the wall clock reaches t.
func sleepUntil(t time.Time) {
	time.Sleep(time.Until(t)) //lint:allow determinism benchmark clock
}

// wallSleep blocks for d of wall time.
func wallSleep(d time.Duration) {
	time.Sleep(d) //lint:allow determinism benchmark clock
}

// wallTicker returns a ticker firing every d of wall time.
func wallTicker(d time.Duration) *time.Ticker {
	return time.NewTicker(d) //lint:allow determinism benchmark clock
}

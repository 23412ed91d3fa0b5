package main

import (
	"testing"
	"time"

	"stac/internal/obs"
)

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	mk := func(layer string, a, b int, children ...*span) *span {
		return &span{layer: layer, start: at(a), end: at(b), children: children}
	}
	// request 0..100 µs: two overlapping children (10..30, 20..40 →
	// 30 µs covered once), one child running past the parent's end
	// (90..120 → clipped to 10 µs).
	grand := mk("srac.prefix_eval", 12, 18)
	auth := mk("core.authorize", 10, 30, grand)
	root := mk("server.request", 0, 100, auth, mk("temporal.check", 20, 40), mk("x", 90, 120))
	if got, want := root.selfTime(), 60*time.Microsecond; got != want {
		t.Errorf("request self time %v, want %v", got, want)
	}
	if got, want := auth.selfTime(), 14*time.Microsecond; got != want {
		t.Errorf("authorize self time %v, want %v", got, want)
	}
	if got, want := grand.selfTime(), 6*time.Microsecond; got != want {
		t.Errorf("leaf self time %v, want %v", got, want)
	}
	// Self times of a tree whose children lie inside their parents sum
	// to the root's duration.
	inner := mk("server.request", 0, 100, mk("core.authorize", 10, 30, mk("srac.prefix_eval", 12, 18)), mk("temporal.check", 40, 50))
	var sum time.Duration
	inner.walk(func(s *span) { sum += s.selfTime() })
	if sum != 100*time.Microsecond {
		t.Errorf("self times sum to %v, want 100µs", sum)
	}
}

func TestEngineTreeFollowsParents(t *testing.T) {
	t0 := time.Unix(1000, 0)
	id := func(b byte) obs.SpanID { return obs.SpanID{b} }
	spans := []obs.Span{
		{SpanID: id(3), Parent: id(2), Name: "prefix_eval", Start: t0.Add(2 * time.Microsecond), Duration: 3 * time.Microsecond},
		{SpanID: id(4), Parent: id(2), Name: "temporal_check", Start: t0.Add(6 * time.Microsecond), Duration: time.Microsecond},
		{SpanID: id(2), Parent: id(1), Name: "authorize", Start: t0.Add(time.Microsecond), Duration: 8 * time.Microsecond},
		{SpanID: id(1), Name: "server.request", Start: t0, Duration: 10 * time.Microsecond},
	}
	roots := engineTree(spans)
	if len(roots) != 1 || roots[0].layer != "core.authorize" {
		t.Fatalf("roots %+v, want the authorize span alone", roots)
	}
	if n := len(roots[0].children); n != 2 {
		t.Fatalf("authorize has %d children, want 2", n)
	}
	if got, want := roots[0].selfTime(), 4*time.Microsecond; got != want {
		t.Errorf("authorize self time %v, want %v", got, want)
	}
}

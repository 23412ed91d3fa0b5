package main

import (
	"sort"
	"time"

	"stac/internal/obs"
)

// span is one timed call in the traced run: a layer boundary the
// benchmark wrapped, or an engine span read back from the engine's
// tracer. Children are the calls made inside it.
type span struct {
	layer      string
	start, end time.Time
	children   []*span
}

func (s *span) add(c *span) { s.children = append(s.children, c) }

// selfTime is the span's duration minus the part of its interval its
// children cover. Children are clipped to the parent's interval and
// overlapping children are counted once.
func (s *span) selfTime() time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range s.children {
		a, b := c.start, c.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.end.Sub(s.start) - covered
}

// walk visits the span and its descendants, depth first.
func (s *span) walk(f func(*span)) {
	f(s)
	for _, c := range s.children {
		c.walk(f)
	}
}

// engineLayers maps the engine's own span names to the layer they
// measure. The engine's server.request span is absent on purpose: it
// wraps the same call as the benchmark's server.request span, so its
// children are lifted onto that span instead.
var engineLayers = map[string]string{
	"authorize":      "core.authorize",
	"static_check":   "srac.static_check",
	"prefix_eval":    "srac.prefix_eval",
	"temporal_check": "temporal.check",
}

// engineTree turns the engine spans of one decision into benchmark
// spans and returns the top-level ones (their parent is not a mapped
// engine span).
func engineTree(spans []obs.Span) []*span {
	byID := map[obs.SpanID]*span{}
	for _, sp := range spans {
		if layer, ok := engineLayers[sp.Name]; ok {
			byID[sp.SpanID] = &span{layer: layer, start: sp.Start, end: sp.Start.Add(sp.Duration)}
		}
	}
	var roots []*span
	for _, sp := range spans {
		node, ok := byID[sp.SpanID]
		if !ok {
			continue
		}
		if parent, ok := byID[sp.Parent]; ok {
			parent.add(node)
		} else {
			roots = append(roots, node)
		}
	}
	return roots
}

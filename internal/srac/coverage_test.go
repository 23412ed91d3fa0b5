package srac

import (
	"math/rand"
	"testing"

	"stac/internal/model"
	"stac/internal/trace"
)

// Property: a recorded walk's root attribution equals Attribute, every
// node's (Status, Stable) equals EvalPrefixStable on that subformula
// and its Holds equals SatisfiesTrace, exactly one node is decisive,
// and the decisive node carries the attributed clause — over the full
// grammar.
func TestCoverAgreesWithAttributeAndEval(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	pool := []model.Access{
		model.NewAccess("", "read", "f1", "s1"),
		model.NewAccess("", "write", "f2", "s1"),
		model.NewAccess("", "read", "f3", "s2"),
		model.NewAccess("", "execute", "rsw", "s2"),
	}
	for i := 0; i < 1500; i++ {
		var hist trace.Trace
		for j := 0; j < r.Intn(7); j++ {
			hist = append(hist, pool[r.Intn(len(pool))])
		}
		c := randomFullConstraint(r, 1+r.Intn(3))
		var sink Sink
		got := EvalWith(c, Scan(hist, nil), &sink)
		want := Attribute(hist, c, nil)
		if got.Status != want.Status || got.Stable != want.Stable || got.Holds != want.Holds ||
			got.ClauseString() != want.ClauseString() {
			t.Fatalf("walk root attribution diverges for %s over %v:\n got (%s, %v, %v) %s\nwant (%s, %v, %v) %s",
				String(c), hist, got.Status, got.Stable, got.Holds, got.ClauseString(),
				want.Status, want.Stable, want.Holds, want.ClauseString())
		}
		decisive := 0
		var decisiveNode NodeCost
		seen := make(map[string]bool, len(sink.Nodes))
		for _, n := range sink.Nodes {
			if seen[n.Path] {
				t.Fatalf("duplicate path %q for %s", n.Path, String(c))
			}
			seen[n.Path] = true
			sub, ok := SubclauseAt(c, n.Path)
			if !ok {
				t.Fatalf("path %q does not resolve in %s", n.Path, String(c))
			}
			st, stable := EvalPrefixStable(hist, sub, nil)
			if n.Status != st || n.Stable != stable {
				t.Fatalf("node %q of %s: coverage (%s, %v) != eval (%s, %v)",
					n.Path, String(c), n.Status, n.Stable, st, stable)
			}
			if holds := SatisfiesTrace(hist, sub, nil); n.Holds != holds {
				t.Fatalf("node %q of %s over %v: holds %v != SatisfiesTrace %v",
					n.Path, String(c), hist, n.Holds, holds)
			}
			if n.Decisive {
				decisive++
				decisiveNode = n
			}
		}
		if decisive != 1 {
			t.Fatalf("%d decisive nodes for %s over %v (want exactly 1): %+v",
				decisive, String(c), hist, sink.Nodes)
		}
		sub, _ := SubclauseAt(c, decisiveNode.Path)
		if String(sub) != want.ClauseString() {
			t.Fatalf("decisive path %q resolves to %s, but attribution blames %s (constraint %s)",
				decisiveNode.Path, String(sub), want.ClauseString(), String(c))
		}
	}
}

// WalkPaths must enumerate exactly the paths a recorded walk produces,
// in the same pre-order, and SubclauseAt must invert it.
func TestWalkPathsMatchesCover(t *testing.T) {
	r := rand.New(rand.NewSource(223))
	for i := 0; i < 300; i++ {
		c := randomFullConstraint(r, 1+r.Intn(3))
		var walked []string
		WalkPaths(c, func(path string, sub Constraint) {
			walked = append(walked, path)
			got, ok := SubclauseAt(c, path)
			if !ok || String(got) != String(sub) {
				t.Fatalf("SubclauseAt(%q) = %v/%v, want %s", path, got, ok, String(sub))
			}
		})
		var sink Sink
		EvalWith(c, Scan(nil, nil), &sink)
		if len(sink.Nodes) != len(walked) {
			t.Fatalf("walk recorded %d nodes, WalkPaths %d for %s", len(sink.Nodes), len(walked), String(c))
		}
		for j, n := range sink.Nodes {
			if n.Path != walked[j] {
				t.Fatalf("node %d path %q, WalkPaths %q for %s", j, n.Path, walked[j], String(c))
			}
		}
	}
}

func TestSubclauseAtRejectsBadPaths(t *testing.T) {
	c := And{Left: TrueC{}, Right: Not{C: FalseC{}}}
	for _, bad := range []string{"x", "ln", "rl", "rnn", "lll"} {
		if sub, ok := SubclauseAt(c, bad); ok {
			t.Errorf("SubclauseAt(%q) = %s, want miss", bad, String(sub))
		}
	}
	if sub, ok := SubclauseAt(c, "rn"); !ok || String(sub) != String(FalseC{}) {
		t.Errorf("SubclauseAt(rn) = %v/%v, want F", sub, ok)
	}
}

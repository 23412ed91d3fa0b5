package srac

import (
	"testing"

	"stac/internal/model"
	"stac/internal/trace"
)

// fuzzHistory is the fixed non-empty history FuzzParse evaluates
// accepted constraints against: two objects, repeated accesses, and
// one access the oracle refuses to attest.
var fuzzHistory = trace.Trace{
	model.NewAccess("o1", "read", "f1", "s1"),
	model.NewAccess("o2", "execute", "rsw-trial", "s2"),
	model.NewAccess("o1", "write", "f2", "s2"),
	model.NewAccess("o1", "read", "f1", "s1"),
	model.NewAccess("o1", "execute", "rsw-licensed", "s1"),
}

// FuzzParse checks that the SRAC parser never panics, accepted
// constraints round-trip through the printer, and the prefix walk is
// total and consistent with Definition 3.6 on a fixed history.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"T", "F",
		"[read f1 @ s1]",
		"[o1: * f1 @ *] >> [write f2 @ s2]",
		"count(0, 5, sigma[r=rsw-licensed,rsw-trial])",
		"count(2, inf, sigma[*])",
		"not T and F or [read f @ s] -> T",
		"count(0, 1, sigma[o=o1,o2; op=read; r=f1; s=s1,s2])",
		"[[", "count(", "sigma", ">>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		printed := String(c)
		d, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted %q but rejected its printed form %q: %v", src, printed, err)
		}
		if String(d) != printed {
			t.Fatalf("round trip changed constraint: %q -> %q -> %q", src, printed, String(d))
		}
		// Evaluation must be total on any accepted constraint.
		_ = SatisfiesTrace(trace.Empty, c, nil)
		_ = EvalPrefix(trace.Empty, c, nil)

		unattested := fuzzHistory[1]
		pr := OracleFunc(func(a model.Access) bool { return a != unattested })
		for _, run := range []struct {
			leaves Leaves
			ref    Constraint
		}{
			{Scan(fuzzHistory, pr), c},
			{ScanAs(fuzzHistory, pr, "o1"), StampObject(c, "o1")},
		} {
			var sink Sink
			a := EvalWith(c, run.leaves, &sink)
			if holds := SatisfiesTrace(fuzzHistory, run.ref, pr); a.Holds != holds {
				t.Fatalf("%q: walk holds %v, SatisfiesTrace %v", printed, a.Holds, holds)
			}
			for _, n := range sink.Nodes {
				if (n.Status == Satisfied && !n.Holds) || (n.Status == Violated && n.Holds) {
					t.Fatalf("%q node %q: status %s with holds=%v", printed, n.Path, n.Status, n.Holds)
				}
			}
			ex := ExplainWith(c, run.leaves)
			if ex.Status != a.Status || ex.Stable != a.Stable || ex.Clause == nil || ex.Detail == "" {
				t.Fatalf("%q: explanation %+v does not render verdict %s", printed, ex, a.Status)
			}
			_ = ex.Summary()
		}
	})
}

package srac

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"stac/internal/model"
	"stac/internal/trace"
)

// goldenCase is one row of testdata/prefix_golden.json: a formula, a
// history (entries "obj op resource server", "-" for no object) with
// the accesses the oracle refuses to attest, and the outcome the
// evaluator recorded. Bound cases evaluate for requester Self (the
// reference stamps the formula with StampObject); count cases decide
// counting atoms from Counts, keyed by the stamped selector, the way
// the engine's counters do.
type goldenCase struct {
	Mode     string         `json:"mode"`
	Formula  string         `json:"formula"`
	Bound    bool           `json:"bound"`
	Self     string         `json:"self"`
	History  []string       `json:"history"`
	Unproven []string       `json:"unproven"`
	Counts   map[string]int `json:"counts"`
	Status   string         `json:"status"`
	Stable   bool           `json:"stable"`
	Holds    bool           `json:"holds"`
	Clause   string         `json:"clause"`
	Detail   string         `json:"detail"`
	Windows  []CountWindow  `json:"windows"`
	Nodes    []goldenNode   `json:"nodes"`
}

type goldenNode struct {
	Path     string `json:"path"`
	Status   string `json:"status"`
	Stable   bool   `json:"stable"`
	Decisive bool   `json:"decisive"`
	Atoms    int    `json:"atoms"`
}

func goldenAccess(t *testing.T, s string) model.Access {
	t.Helper()
	f := strings.Fields(s)
	if len(f) != 4 {
		t.Fatalf("bad golden access %q", s)
	}
	if f[0] == "-" {
		f[0] = ""
	}
	return model.NewAccess(model.ObjectID(f[0]), model.Operation(f[1]), model.ResourceID(f[2]), model.ServerID(f[3]))
}

// counted decides counting atoms from a count function and has no
// history to match atoms against — the shape of the engine's counter
// leaves.
type counted func(model.Selector) int

func (counted) Match(model.Access, int) int    { return -1 }
func (f counted) Count(sel model.Selector) int { return f(sel) }

func loadGolden(t *testing.T) []goldenCase {
	t.Helper()
	raw, err := os.ReadFile("testdata/prefix_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty golden corpus")
	}
	return cases
}

// TestPrefixGolden replays the parity corpus: verdicts, stability,
// Definition 3.6 truth, attributed clause, detail, count windows and
// per-node coverage (status, stability, decisive flag, leaf atoms)
// recorded from the evaluator before its walks were unified. Each case
// runs two routes that must both reproduce it: the engine's (the
// unstamped formula under requester-bound leaves, then an explanation
// of just the stamped attributed clause) and the reference one (the
// whole stamped formula explained in one walk, plus SatisfiesTrace).
func TestPrefixGolden(t *testing.T) {
	for i, gc := range loadGolden(t) {
		c := MustParse(gc.Formula)
		var hist trace.Trace
		for _, s := range gc.History {
			hist = append(hist, goldenAccess(t, s))
		}
		unproven := map[model.Access]bool{}
		for _, s := range gc.Unproven {
			unproven[goldenAccess(t, s)] = true
		}
		pr := OracleFunc(func(a model.Access) bool { return !unproven[a] })
		self := model.ObjectID(gc.Self)
		stamp := func(c Constraint) Constraint {
			if gc.Bound {
				return StampObject(c, self)
			}
			return c
		}
		var bound, plain Leaves
		switch gc.Mode {
		case "scan":
			plain = Scan(hist, pr)
			bound = plain
			if gc.Bound {
				bound = ScanAs(hist, pr, self)
			}
		case "count":
			bound = counted(func(sel model.Selector) int {
				if gc.Bound && len(sel.Objects) == 0 {
					sel.Objects = []model.ObjectID{self}
				}
				n, ok := gc.Counts[sel.String()]
				if !ok {
					t.Fatalf("case %d: no count recorded for %s", i, sel)
				}
				return n
			})
			plain = bound
		default:
			t.Fatalf("case %d: unknown mode %q", i, gc.Mode)
		}
		where := func() string {
			return gc.Mode + " " + gc.Formula + " over " + strings.Join(gc.History, ", ") + " as " + gc.Self
		}
		check := func(route string, a Attribution) {
			t.Helper()
			if a.Status.String() != gc.Status || a.Stable != gc.Stable || a.Holds != gc.Holds {
				t.Fatalf("case %d %s (%s): got (%s, stable=%v, holds=%v), want (%s, stable=%v, holds=%v)",
					i, route, where(), a.Status, a.Stable, a.Holds, gc.Status, gc.Stable, gc.Holds)
			}
			if a.ClauseString() != gc.Clause || a.Detail != gc.Detail {
				t.Fatalf("case %d %s (%s):\n got %s — %q\nwant %s — %q", i, route, where(),
					a.ClauseString(), a.Detail, gc.Clause, gc.Detail)
			}
			if len(a.Counts) != 0 || len(gc.Windows) != 0 {
				if !reflect.DeepEqual(a.Counts, gc.Windows) {
					t.Fatalf("case %d %s (%s): windows %+v, want %+v", i, route, where(), a.Counts, gc.Windows)
				}
			}
		}

		// The engine's route.
		var sink Sink
		a := EvalWith(c, bound, &sink)
		if a.Status.String() != gc.Status || a.Stable != gc.Stable || a.Holds != gc.Holds {
			t.Fatalf("case %d walk (%s): got (%s, %v, %v), want (%s, %v, %v)",
				i, where(), a.Status, a.Stable, a.Holds, gc.Status, gc.Stable, gc.Holds)
		}
		if len(sink.Nodes) != len(gc.Nodes) {
			t.Fatalf("case %d (%s): %d nodes, want %d", i, where(), len(sink.Nodes), len(gc.Nodes))
		}
		for j, n := range sink.Nodes {
			want := gc.Nodes[j]
			got := goldenNode{Path: n.Path, Status: n.Status.String(), Stable: n.Stable, Decisive: n.Decisive, Atoms: n.Atoms}
			if got != want {
				t.Fatalf("case %d (%s) node %d: got %+v, want %+v", i, where(), j, got, want)
			}
		}
		ex := ExplainWith(stamp(a.Clause), bound)
		ex.Holds = a.Holds // the clause's own truth is not the constraint's
		check("explain-clause", ex)

		// The reference route.
		check("explain-whole", ExplainWith(stamp(c), plain))
		if got := SatisfiesTrace(hist, stamp(c), pr); got != gc.Holds {
			t.Fatalf("case %d (%s): SatisfiesTrace = %v, want %v", i, where(), got, gc.Holds)
		}
	}
}

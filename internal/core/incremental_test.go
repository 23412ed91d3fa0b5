package core

import (
	"math/rand"
	"reflect"
	"testing"

	"stac/internal/model"
	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/temporal"
	"stac/internal/trace"
)

func TestCountingOnly(t *testing.T) {
	tests := []struct {
		src  string
		want bool
	}{
		{"T", true},
		{"count(0, 5, sigma[r=rsw])", true},
		{"count(0, 5, sigma[*]) and not count(3, 3, sigma[op=read])", true},
		{"[read f @ s]", false},
		{"[read a @ *] >> [read b @ *]", false},
		{"count(0, 5, sigma[*]) and [read f @ s]", false},
	}
	for _, tt := range tests {
		if got := countingOnly(srac.MustParse(tt.src)); got != tt.want {
			t.Errorf("countingOnly(%q) = %v", tt.src, got)
		}
	}
}

// incrementalEngine builds an engine with a counting ceiling on rsw.
func incrementalEngine(t *testing.T, max int) (*Engine, *rbac.Session) {
	t.Helper()
	e := NewEngine(temporal.NewSimClock(0))
	e.EnableIncrementalCounting()
	for _, step := range []error{
		e.RBAC.AddUser("o1"),
		e.RBAC.AddRole("r"),
		e.DefinePermission(PermSpec{
			Perm:    rbac.Permission{ID: "p-rsw", Op: "execute", Resource: "rsw"},
			Spatial: srac.AtMost(max, model.Selector{Resources: []model.ResourceID{"rsw"}}),
		}),
		e.RBAC.GrantPermission("r", "p-rsw"),
		e.RBAC.AssignUserRole("o1", "r"),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	sess, err := e.RBAC.CreateSession("o1")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ActivateRole("r"); err != nil {
		t.Fatal(err)
	}
	return e, sess
}

func TestIncrementalCeilingWithoutHistory(t *testing.T) {
	e, sess := incrementalEngine(t, 2)
	a := model.NewAccess("o1", "execute", "rsw", "s1")
	for i := 0; i < 2; i++ {
		// No History passed at all: the counters carry the state.
		d := e.Authorize(Request{Session: sess, Access: a})
		if !d.Granted {
			t.Fatalf("access %d denied: %s", i+1, d)
		}
		e.RecordGrant(a)
	}
	d := e.Authorize(Request{Session: sess, Access: a})
	if d.Granted {
		t.Fatal("3rd access granted despite counter ceiling")
	}
	if d.Spatial != srac.Violated {
		t.Fatalf("spatial = %v", d.Spatial)
	}
	if len(e.Counters()) == 0 {
		t.Fatal("no counters recorded")
	}
}

func TestIncrementalCountsPerObject(t *testing.T) {
	e, sess := incrementalEngine(t, 1)
	if err := e.RBAC.AddUser("o2"); err != nil {
		t.Fatal(err)
	}
	if err := e.RBAC.AssignUserRole("o2", "r"); err != nil {
		t.Fatal(err)
	}
	sess2, err := e.RBAC.CreateSession("o2")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.ActivateRole("r"); err != nil {
		t.Fatal(err)
	}
	a1 := model.NewAccess("o1", "execute", "rsw", "s1")
	a2 := model.NewAccess("o2", "execute", "rsw", "s1")
	if d := e.Authorize(Request{Session: sess, Access: a1}); !d.Granted {
		t.Fatal("o1 first access denied")
	}
	e.RecordGrant(a1)
	// o1 is at its ceiling; o2's own budget is untouched (StampObject
	// makes objectless selectors per-object).
	if d := e.Authorize(Request{Session: sess, Access: a1}); d.Granted {
		t.Fatal("o1 over ceiling granted")
	}
	if d := e.Authorize(Request{Session: sess2, Access: a2}); !d.Granted {
		t.Fatal("o2 blocked by o1's consumption")
	}
}

func TestRecordGrantNoopWhenDisabled(t *testing.T) {
	e := NewEngine(nil)
	e.RecordGrant(model.NewAccess("o1", "read", "f", "s"))
	if len(e.Counters()) != 0 {
		t.Fatal("disabled engine recorded a grant")
	}
}

func TestEnableAfterDefineRegistersSelectors(t *testing.T) {
	e := NewEngine(nil)
	if err := e.DefinePermission(PermSpec{
		Perm:    rbac.Permission{ID: "p", Op: "read"},
		Spatial: srac.AtMost(1, model.Selector{Ops: []model.Operation{"read"}}),
	}); err != nil {
		t.Fatal(err)
	}
	e.EnableIncrementalCounting() // after DefinePermission
	a := model.NewAccess("o1", "read", "f", "s")
	e.RecordGrant(a)
	if len(e.Counters()) == 0 {
		t.Fatal("late enabling did not register selectors")
	}
}

// Equivalence property: for random counting-only constraints, random
// grant sequences and both enforcement modes, the incremental decision
// equals the scan-path decision at every step — verdict, denial kind
// and explanation. The hand-written constraint first in the corpus is
// ¬#(3,5,σ[r=rsw]): on the first access its count is below the floor,
// so the negation holds on the post-state (Definition 3.6) while its
// prefix status is only Pending, and Strict mode must grant on both
// paths.
func TestIncrementalEquivalentToScan(t *testing.T) {
	r := rand.New(rand.NewSource(107))
	resources := []model.ResourceID{"f1", "f2", "rsw"}
	ops := []model.Operation{"read", "execute"}
	for _, mode := range []SpatialMode{Admissible, Strict} {
		for trial := 0; trial < 60; trial++ {
			// Random counting-only constraint.
			cons := randomCountingConstraint(r, 2, resources, ops)
			if trial == 0 {
				cons = srac.MustParse("not count(3, 5, sigma[r=rsw])")
			}

			mk := func(incremental bool) (*Engine, *rbac.Session) {
				e := NewEngine(temporal.NewSimClock(0))
				if incremental {
					e.EnableIncrementalCounting()
				}
				must := func(err error) {
					if err != nil {
						t.Fatal(err)
					}
				}
				must(e.RBAC.AddUser("o1"))
				must(e.RBAC.AddRole("r"))
				must(e.DefinePermission(PermSpec{Perm: rbac.Permission{ID: "p"}, Spatial: cons, Mode: mode}))
				must(e.RBAC.GrantPermission("r", "p"))
				must(e.RBAC.AssignUserRole("o1", "r"))
				sess, err := e.RBAC.CreateSession("o1")
				must(err)
				must(sess.ActivateRole("r"))
				return e, sess
			}
			inc, incSess := mk(true)
			scan, scanSess := mk(false)

			var history trace.Trace
			for step := 0; step < 12; step++ {
				a := model.NewAccess("o1", ops[r.Intn(len(ops))],
					resources[r.Intn(len(resources))], "s1")
				if trial == 0 {
					a = model.NewAccess("o1", "execute", "rsw", "s1")
				}
				di := inc.Authorize(Request{Session: incSess, Access: a})
				ds := scan.Authorize(Request{Session: scanSess, Access: a, History: history})
				if di.Granted != ds.Granted || di.Deny != ds.Deny || di.Spatial != ds.Spatial ||
					!reflect.DeepEqual(di.Explanation, ds.Explanation) {
					t.Fatalf("mode %s trial %d step %d: incremental=%v/%s/%s scan=%v/%s/%s\nconstraint: %s\nhistory: %v\naccess: %v\nexplanations:\n %s\n %s",
						mode, trial, step, di.Granted, di.Deny, di.Spatial, ds.Granted, ds.Deny, ds.Spatial,
						srac.String(cons), history, a, di.Explanation, ds.Explanation)
				}
				if trial == 0 && step == 0 && !di.Granted {
					t.Fatalf("mode %s: first access under %s denied: %s", mode, srac.String(cons), di)
				}
				if di.Granted {
					inc.RecordGrant(a)
					history = append(history, a)
				}
			}
		}
	}
}

func randomCountingConstraint(r *rand.Rand, depth int, resources []model.ResourceID, ops []model.Operation) srac.Constraint {
	if depth <= 0 {
		lo := r.Intn(2)
		hi := lo + r.Intn(5)
		sel := model.Selector{}
		if r.Intn(2) == 0 {
			sel.Resources = []model.ResourceID{resources[r.Intn(len(resources))]}
		}
		if r.Intn(3) == 0 {
			sel.Ops = []model.Operation{ops[r.Intn(len(ops))]}
		}
		return srac.Count{Min: lo, Max: hi, Sel: sel}
	}
	switch r.Intn(4) {
	case 0:
		return srac.And{
			Left:  randomCountingConstraint(r, depth-1, resources, ops),
			Right: randomCountingConstraint(r, depth-1, resources, ops),
		}
	case 1:
		return srac.Or{
			Left:  randomCountingConstraint(r, depth-1, resources, ops),
			Right: randomCountingConstraint(r, depth-1, resources, ops),
		}
	case 2:
		return srac.Not{C: randomCountingConstraint(r, depth-1, resources, ops)}
	default:
		return srac.Count{Min: 0, Max: r.Intn(6), Sel: model.Selector{}}
	}
}

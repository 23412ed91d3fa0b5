package srac

// The prefix walk: the one implementation of the three-valued prefix
// reading of Expression 3.1 (see EvalPrefix). Every consumer — the
// enforcement verdict, the Strict-mode Definition 3.6 gate, clause
// coverage, evaluation-cost profiling and denial attribution — reads
// the same recursion, parameterised by
//
//   - Leaves, which decide atoms, orderings and counts: a scan of a
//     proof-backed history (Scan, ScanAs) or the engine's counters;
//   - an optional Sink, which records every node's outcome and work;
//   - whether detail strings are rendered (ExplainWith), which only a
//     denial pays for.
//
// So one decision walks its constraint once, and an explanation
// re-walks only the attributed clause.

import (
	"fmt"
	"time"

	"stac/internal/model"
	"stac/internal/trace"
)

// Leaves decides the leaf constructs of one walk.
type Leaves interface {
	// Match returns the position of the first attested access at or
	// after from that the pattern matches, or -1.
	Match(pattern model.Access, from int) int
	// Count returns how many attested accesses the selector selects.
	Count(sel model.Selector) int
}

// Scan returns the history-scan leaves: atoms, orderings and counts
// are decided against the accesses in t that the oracle attests. A nil
// oracle defaults to AllProven.
func Scan(t trace.Trace, pr ProofOracle) Leaves {
	return newScan(t, pr, "", false)
}

// ScanAs is Scan for one requesting object: anonymous patterns and
// selectors match only self's accesses, exactly as if the walked
// constraint were StampObject(c, self) — without rebuilding it.
// Patterns and selectors that name objects are left alone, so
// cross-object coordination constraints keep working.
func ScanAs(t trace.Trace, pr ProofOracle, self model.ObjectID) Leaves {
	return newScan(t, pr, self, true)
}

type scan struct {
	t     trace.Trace
	pr    ProofOracle
	self  model.ObjectID
	bound bool
}

func newScan(t trace.Trace, pr ProofOracle, self model.ObjectID, bound bool) *scan {
	if pr == nil {
		pr = AllProven
	}
	return &scan{t: t, pr: pr, self: self, bound: bound}
}

func (s *scan) Match(pattern model.Access, from int) int {
	if pattern.Object == "" {
		pattern.Object = s.self
	}
	for i := from; i < len(s.t); i++ {
		if pattern.Matches(s.t[i]) && s.pr.Proven(s.t[i]) {
			return i
		}
	}
	return -1
}

// Count counts the proof-backed accesses sel selects — the |σ(t)| of
// Definition 3.6 under the proof-carrying reading (see
// SatisfiesTrace).
func (s *scan) Count(sel model.Selector) int {
	anyObject := !s.bound || len(sel.Objects) > 0
	n := 0
	for _, a := range s.t {
		if sel.SelectAccess(a) && (anyObject || a.Object == s.self) && s.pr.Proven(a) {
			n++
		}
	}
	return n
}

// NodeCost is one subformula's outcome in a walk together with the
// work its subtree performed. Paths address nodes from the root: ""
// is the root, then 'l'/'r' into a conjunction or disjunction, 'n'
// under a negation. Paths are stable across walks of the same
// constraint, so they key coverage and cost aggregation.
type NodeCost struct {
	Path   string
	Status Status
	Stable bool
	// Holds is the Definition 3.6 truth of the subformula.
	Holds bool
	// Decisive marks the node the whole-constraint verdict is
	// attributed to; exactly one node per walk is decisive.
	Decisive bool
	// Atoms counts the leaf evaluations performed inside this node's
	// subtree (a leaf counts itself once). The root's Atoms is the
	// total leaf work of the walk.
	Atoms int
	// NS is the subtree's wall-clock evaluation time in nanoseconds,
	// including children. Zero unless the sink is Timed.
	NS int64
}

// Sink records a walk node by node.
type Sink struct {
	// Nodes receives one entry per subformula, appended in pre-order
	// (parents before children, left before right — lexicographic
	// path order).
	Nodes []NodeCost
	// Timed makes the walk read the clock around every node. Callers
	// sample it (typically 1-in-64): two clock reads per node are
	// themselves measurable on tiny formulas.
	Timed bool
}

// EvalWith walks c once with the given leaves and returns its
// attribution: the prefix verdict, its stability, the Definition 3.6
// truth (Holds) and the attributed clause, without detail strings.
// A non-nil sink additionally receives every node's outcome, with the
// attributed node marked Decisive.
func EvalWith(c Constraint, leaves Leaves, sink *Sink) Attribution {
	w := walker{leaves: leaves, sink: sink}
	from := 0
	if sink != nil {
		from = len(sink.Nodes)
	}
	n := w.walk(c, "")
	if sink != nil {
		for i := from; i < len(sink.Nodes); i++ {
			if sink.Nodes[i].Path == n.path {
				sink.Nodes[i].Decisive = true
				break
			}
		}
	}
	return n.attribution()
}

// ExplainWith is EvalWith plus explanation: the attribution also
// carries a one-line Detail and, when the verdict rests on counting
// atoms, the window state of every counting atom inside the
// attributed clause.
func ExplainWith(c Constraint, leaves Leaves) Attribution {
	w := walker{leaves: leaves, explain: true}
	n := w.walk(c, "")
	a := n.attribution()
	a.Detail = n.detail
	if n.windows {
		Walk(n.clause, func(x Constraint) bool {
			if cnt, ok := x.(Count); ok {
				max := cnt.Max
				if max == Unbounded {
					max = -1
				}
				a.Counts = append(a.Counts, CountWindow{
					Selector: cnt.Sel.String(),
					Min:      cnt.Min,
					Max:      max,
					Observed: leaves.Count(cnt.Sel),
				})
			}
			return true
		})
	}
	return a
}

type walker struct {
	leaves  Leaves
	sink    *Sink
	explain bool
}

// node is one subformula's outcome. The attribution fields (status,
// stable, windows, clause, path, detail) name the clause the verdict
// rests on — for a violated conjunction the violated conjunct
// (recursively), for a violated disjunction the disjunction itself,
// for a negation the negation; holds and atoms always describe this
// node.
type node struct {
	status Status
	stable bool
	holds  bool
	// windows reports that the attribution rests on counting atoms,
	// so an explanation carries their windows.
	windows bool
	clause  Constraint
	path    string
	detail  string
	atoms   int
}

// blame attributes n's verdict to child ch.
func (n *node) blame(ch node) {
	n.status, n.stable, n.windows = ch.status, ch.stable, ch.windows
	n.clause, n.path, n.detail = ch.clause, ch.path, ch.detail
}

func (n node) attribution() Attribution {
	return Attribution{Status: n.status, Stable: n.stable, Holds: n.holds, Clause: n.clause}
}

// walk decides one subformula. Connectives combine three-valued with
// the stability bit (see EvalPrefixStable); holds combines
// two-valued, which is Definition 3.6 because every leaf holds
// exactly when it is Satisfied.
func (w *walker) walk(c Constraint, path string) node {
	idx := 0
	var t0 time.Time
	if w.sink != nil {
		idx = len(w.sink.Nodes)
		w.sink.Nodes = append(w.sink.Nodes, NodeCost{Path: path})
		if w.sink.Timed {
			t0 = time.Now()
		}
	}
	n := node{status: Pending, clause: c, path: path, atoms: 1}
	switch x := c.(type) {
	case TrueC:
		n.status, n.stable, n.holds = Satisfied, true, true
		n.detail = "constant T"
	case FalseC:
		n.status, n.stable = Violated, true
		n.detail = "constant F"
	case Atom:
		if i := w.leaves.Match(x.A, 0); i >= 0 {
			// The witness is in the history for good: satisfaction is
			// stable under extension.
			n.status, n.stable, n.holds = Satisfied, true, true
			if w.explain {
				n.detail = fmt.Sprintf("witnessed at history position %d", i)
			}
		} else {
			n.detail = "no proof-backed occurrence yet"
		}
	case Ordered:
		i, j := w.leaves.Match(x.First, 0), -1
		if i >= 0 {
			j = w.leaves.Match(x.Second, i+1)
		}
		switch {
		case j >= 0:
			n.status, n.stable, n.holds = Satisfied, true, true
			if w.explain {
				n.detail = fmt.Sprintf("witnessed in order at positions %d and %d", i, j)
			}
		case i < 0:
			n.detail = "first access not yet witnessed"
		default:
			if w.explain {
				n.detail = fmt.Sprintf("first access witnessed at position %d, second still pending", i)
			}
		}
	case Count:
		k := w.leaves.Count(x.Sel)
		n.windows = true
		switch {
		case k > x.Max:
			n.status, n.stable = Violated, true
		case k >= x.Min:
			// Extensions can only grow the count, so satisfaction is
			// stable exactly when there is no ceiling to cross.
			n.status, n.stable, n.holds = Satisfied, x.Max == Unbounded, true
		}
		if w.explain {
			n.detail = countDetail(x, k, n.status)
		}
	case And:
		l, r := w.walk(x.Left, w.child(path, "l")), w.walk(x.Right, w.child(path, "r"))
		n.atoms, n.holds = l.atoms+r.atoms, l.holds && r.holds
		switch {
		case l.status == Violated:
			n.blame(l)
		case r.status == Violated:
			n.blame(r)
		case l.status == Satisfied && r.status == Satisfied:
			n.status, n.stable = Satisfied, l.stable && r.stable
			n.windows = l.windows || r.windows
			n.detail = "both conjuncts satisfied"
		case l.status == Pending:
			n.blame(l)
		default:
			n.blame(r)
		}
	case Or:
		l, r := w.walk(x.Left, w.child(path, "l")), w.walk(x.Right, w.child(path, "r"))
		n.atoms, n.holds = l.atoms+r.atoms, l.holds || r.holds
		switch {
		// Prefer a stably satisfied disjunct: the disjunction is
		// stable iff some satisfied disjunct is.
		case l.status == Satisfied && l.stable:
			n.blame(l)
		case r.status == Satisfied && r.stable:
			n.blame(r)
		case l.status == Satisfied:
			n.blame(l)
		case r.status == Satisfied:
			n.blame(r)
		case l.status == Violated && r.status == Violated:
			// Both alternatives are dead: the disjunction as a whole is
			// the violated clause.
			n.status, n.stable = Violated, true
			n.windows = l.windows || r.windows
			if w.explain {
				n.detail = "both alternatives violated: " + l.detail + "; " + r.detail
			}
		case l.status == Pending:
			n.blame(l)
		default:
			n.blame(r)
		}
	case Not:
		in := w.walk(x.C, w.child(path, "n"))
		n.atoms, n.holds, n.windows = in.atoms, !in.holds, in.windows
		n.status, n.stable = NegateStable(in.status, in.stable)
		if w.explain {
			switch {
			case n.status == Violated:
				// ¬C is irreversibly violated because C is stably
				// satisfied; blame the negation but carry the inner
				// witness.
				n.detail = "negated subformula stably satisfied (" + in.detail + ")"
			case n.status == Satisfied:
				n.detail = "negated subformula violated (" + in.detail + ")"
			case in.status == Satisfied:
				n.detail = "negated subformula satisfied but not stably (" + in.detail + ")"
			default:
				n.detail = "negated subformula still pending (" + in.detail + ")"
			}
		}
	default:
		if w.explain {
			n.detail = fmt.Sprintf("unknown construct %T", c)
		}
	}
	if w.sink != nil {
		nc := &w.sink.Nodes[idx]
		nc.Status, nc.Stable, nc.Holds, nc.Atoms = n.status, n.stable, n.holds, n.atoms
		if w.sink.Timed {
			nc.NS = time.Since(t0).Nanoseconds()
		}
	}
	return n
}

// child extends a node path by one step. Paths are only built when a
// sink records them.
func (w *walker) child(path, step string) string {
	if w.sink == nil {
		return ""
	}
	return path + step
}

// countDetail renders a counting atom's verdict given its observed
// proof-backed count.
func countDetail(x Count, n int, st Status) string {
	switch {
	case st == Violated:
		return fmt.Sprintf("count %d exceeds ceiling %d of window [%d,%d] for %s",
			n, x.Max, x.Min, x.Max, x.Sel)
	case st == Satisfied && x.Max == Unbounded:
		return fmt.Sprintf("count %d meets floor %d (no ceiling) for %s", n, x.Min, x.Sel)
	case st == Satisfied:
		return fmt.Sprintf("count %d within window [%d,%d] for %s (extensions may exceed it)",
			n, x.Min, x.Max, x.Sel)
	default:
		return fmt.Sprintf("count %d below floor %d of window [%d,%d] for %s",
			n, x.Min, x.Min, x.Max, x.Sel)
	}
}

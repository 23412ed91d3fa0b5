package srac

import (
	"stac/internal/model"
	"stac/internal/trace"
)

// ProofOracle answers whether an access has been successfully carried
// out, as attested by an execution proof (the Pr_x(·) of Section 2).
// The proof package's Store implements it; AllProven is used when
// constraints are evaluated against hypothetical traces.
type ProofOracle interface {
	// Proven reports whether an execution proof exists for the access.
	Proven(a model.Access) bool
}

// OracleFunc adapts a function to a ProofOracle.
type OracleFunc func(model.Access) bool

// Proven implements ProofOracle.
func (f OracleFunc) Proven(a model.Access) bool { return f(a) }

// AllProven is the oracle that attests every access — used when
// checking a program's *potential* traces, where proofs will be issued
// as the accesses are performed.
var AllProven ProofOracle = OracleFunc(func(model.Access) bool { return true })

// NoneProven attests no access.
var NoneProven ProofOracle = OracleFunc(func(model.Access) bool { return false })

// SatisfiesTrace implements the trace satisfaction relation t ⊨ C of
// Definition 3.6, relative to the execution-proof oracle pr:
//
//	t ⊨ T; t ⊭ F
//	t ⊨ a           iff a ∈ t and Pr(a)
//	t ⊨ a1 ⊗ a2     iff ∃ t1·t2 = t with a1 ∈ t1, a2 ∈ t2,
//	                    Pr(a1) and Pr(a2)
//	t ⊨ #(m,n,σ)    iff m ≤ |σ(t)| ≤ n, over proof-backed accesses
//	∧, ∨, ¬          as usual
//
// On the proof oracle and counting: Definition 3.6 writes |σ(t)| over
// the trace, but the model's premise (Section 2) is that a mobile
// object's claimed history is only credible where an execution proof
// attests it — which is why the atom and ordering cases require
// Pr(a). We read the counting atom the same way: #(m, n, σ) counts
// only the σ-selected accesses the oracle attests, through the same
// Scan leaves the prefix walk (EvalPrefix) decides with.
// Counting raw trace entries would let an unattested (e.g. replayed or
// fabricated) access consume a ceiling or satisfy a floor that the
// proof-carrying design says it must not. With the default AllProven
// oracle (hypothetical traces, static checking) the two readings
// coincide.
//
// Constraint atoms are access patterns: an atom with an empty
// component matches any access agreeing on the non-empty components.
// A nil oracle defaults to AllProven.
func SatisfiesTrace(t trace.Trace, c Constraint, pr ProofOracle) bool {
	return satisfies(newScan(t, pr, "", false), c)
}

func satisfies(s *scan, c Constraint) bool {
	switch x := c.(type) {
	case TrueC:
		return true
	case FalseC:
		return false
	case Atom:
		return s.Match(x.A, 0) >= 0
	case Ordered:
		i := s.Match(x.First, 0)
		return i >= 0 && s.Match(x.Second, i+1) >= 0
	case Count:
		n := s.Count(x.Sel)
		return n >= x.Min && n <= x.Max
	case And:
		return satisfies(s, x.Left) && satisfies(s, x.Right)
	case Or:
		return satisfies(s, x.Left) || satisfies(s, x.Right)
	case Not:
		return !satisfies(s, x.C)
	}
	return false
}

// SatisfiesAll reports whether every trace in the set satisfies the
// constraint — the universal ("Must") reading of Definition 3.7 used
// for enforcement.
func SatisfiesAll(s *trace.Set, c Constraint, pr ProofOracle) bool {
	for _, t := range s.Traces() {
		if !SatisfiesTrace(t, c, pr) {
			return false
		}
	}
	return true
}

// SatisfiesAny reports whether at least one trace in the set satisfies
// the constraint — the existential ("May") reading.
func SatisfiesAny(s *trace.Set, c Constraint, pr ProofOracle) bool {
	for _, t := range s.Traces() {
		if SatisfiesTrace(t, c, pr) {
			return true
		}
	}
	return false
}

// MentionsOtherObject reports whether the constraint references the
// access actions of a mobile object other than obj — a
// companion-coordinating constraint. Static program checking
// (Theorem 3.2) analyses ONE object's program and therefore cannot
// decide such constraints; enforcement falls back to the runtime
// history, which (with a coalition ledger) does include companions.
func MentionsOtherObject(c Constraint, obj model.ObjectID) bool {
	foreign := func(o model.ObjectID) bool { return o != "" && o != obj }
	found := false
	Walk(c, func(x Constraint) bool {
		switch y := x.(type) {
		case Atom:
			if foreign(y.A.Object) {
				found = true
			}
		case Ordered:
			if foreign(y.First.Object) || foreign(y.Second.Object) {
				found = true
			}
		case Count:
			for _, o := range y.Sel.Objects {
				if foreign(o) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// StampObject returns a copy of the constraint with every anonymous
// access pattern (and selector without object restriction) bound to
// the given mobile object. Policies are written object-neutrally and
// stamped at check time for the requesting object; patterns already
// naming an object are left alone so cross-object coordination
// constraints keep working.
func StampObject(c Constraint, o model.ObjectID) Constraint {
	stamp := func(a model.Access) model.Access {
		if a.Object == "" {
			a.Object = o
		}
		return a
	}
	switch x := c.(type) {
	case Atom:
		return Atom{A: stamp(x.A)}
	case Ordered:
		return Ordered{First: stamp(x.First), Second: stamp(x.Second)}
	case Count:
		if len(x.Sel.Objects) == 0 {
			x.Sel.Objects = []model.ObjectID{o}
		}
		return x
	case And:
		return And{Left: StampObject(x.Left, o), Right: StampObject(x.Right, o)}
	case Or:
		return Or{Left: StampObject(x.Left, o), Right: StampObject(x.Right, o)}
	case Not:
		return Not{C: StampObject(x.C, o)}
	}
	return c
}

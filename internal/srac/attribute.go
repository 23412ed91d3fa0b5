package srac

// Violation attribution: given the three-valued prefix status of a
// constraint, pinpoint the subformula responsible for it. Aggregate
// enforcement counters can say *that* a denial happened;
// attribution says *which* clause of the policy made it irreversible —
// the property Combi et al. argue temporal-constraint systems need to
// be trustworthy at all.
//
// Attribution is produced by the prefix walk itself (walk.go), so its
// Status and Stable are the enforcement verdict by construction. The
// clause it reports is a genuine witness — for a Violated conjunction
// it is the violated conjunct (recursively), for a Violated
// disjunction both disjuncts are dead so the disjunction itself is
// reported, and for a negation the blame lies with the stably
// satisfied operand.

import (
	"fmt"
	"strings"

	"stac/internal/trace"
)

// CountWindow is the observable state of one counting atom
// #(m, n, σ): how many proof-backed accesses σ has selected so far
// versus the window it must land in. Max is -1 in JSON when the
// ceiling is unbounded.
type CountWindow struct {
	Selector string `json:"selector"`
	Min      int    `json:"min"`
	Max      int    `json:"max"`
	Observed int    `json:"observed"`
}

// String renders e.g. "sigma[rsw]: observed 3 of window [0,5]".
func (cw CountWindow) String() string {
	max := "inf"
	if cw.Max >= 0 {
		max = fmt.Sprintf("%d", cw.Max)
	}
	return fmt.Sprintf("%s: observed %d of window [%d,%s]", cw.Selector, cw.Observed, cw.Min, max)
}

// Attribution is the explained outcome of a prefix evaluation.
type Attribution struct {
	// Status and Stable are EvalPrefixStable's verdict on the whole
	// constraint.
	Status Status
	Stable bool
	// Holds is the Definition 3.6 truth of the whole constraint
	// (SatisfiesTrace) — what Strict-mode enforcement gates on.
	// Satisfied implies Holds and Violated implies not Holds.
	Holds bool
	// Clause is the subformula the verdict is attributed to: for
	// Violated, the smallest subformula whose violation forces the
	// whole constraint's; for Satisfied, a witness subformula; for
	// Pending, the subformula still awaited.
	Clause Constraint
	// Detail is a one-line human reading of why Clause has its status
	// (set by ExplainWith only).
	Detail string
	// Counts is the window state of every counting atom inside Clause,
	// so a count-driven denial carries its [m,n] numbers (set by
	// ExplainWith only).
	Counts []CountWindow
}

// ClauseString renders the attributed clause in the concrete syntax
// ("" when there is none).
func (a Attribution) ClauseString() string {
	if a.Clause == nil {
		return ""
	}
	return String(a.Clause)
}

// Attribute explains the prefix status of c over the history t — the
// attribution counterpart of EvalPrefixStable, with identical Status
// and Stable.
func Attribute(t trace.Trace, c Constraint, pr ProofOracle) Attribution {
	return ExplainWith(c, Scan(t, pr))
}

// Summary renders the attribution on one line, e.g.
// "violated: count(0, 2, sigma[rsw]) — count 3 exceeds ceiling 2 ...".
func (a Attribution) Summary() string {
	var b strings.Builder
	b.WriteString(a.Status.String())
	if a.Clause != nil {
		b.WriteString(": ")
		b.WriteString(String(a.Clause))
	}
	if a.Detail != "" {
		b.WriteString(" — ")
		b.WriteString(a.Detail)
	}
	return b.String()
}

package core

import (
	"stac/internal/model"
	"stac/internal/srac"
)

// E4 and E8 of EXPERIMENTS.md quantify the dominant enforcement cost
// of the paper's design: every decision re-scans the proof-backed
// history. For the most common constraint shape — boolean combinations
// of counting atoms #(m, n, σ), like the restricted-software ceiling —
// the scan is avoidable: the engine can maintain one counter per
// (object, selector) pair, updated as grants happen, and decide in
// O(|C|) regardless of history length.
//
// The optimisation is OPT-IN (EnableIncrementalCounting) because it
// shifts the source of truth: decisions then trust the engine's own
// grant record instead of the object's carried proofs. Inside one
// coalition engine the two coincide — every proof this coalition
// issued passed through Authorize — but callers that feed externally
// constructed histories must stay on the scan path. Constraints with
// atoms or orderings always use the scan path; only counting-only
// constraints take the fast path.
//
// The counter path is not a second evaluator: it runs the one srac
// prefix walk (srac.EvalWith) with counterLeaves in place of a history
// scan, so its verdicts, Strict-mode gate, explanations, coverage and
// cost follow the scan path's by construction.

// countingOnly reports whether the constraint is built exclusively
// from T, F, counting atoms and boolean connectives.
func countingOnly(c srac.Constraint) bool {
	ok := true
	srac.Walk(c, func(x srac.Constraint) bool {
		switch x.(type) {
		case srac.Atom, srac.Ordered:
			ok = false
			return false
		}
		return true
	})
	return ok
}

// selKey canonicalises a selector for counter keying. Selector String
// is deterministic for the field sets the policy layer produces.
func selKey(sel model.Selector) string {
	// Name is a display label; exclude it from identity.
	sel.Name = ""
	return sel.String()
}

// EnableIncrementalCounting switches counting-only spatial constraints
// to engine-side counters. Call it before any accesses are granted —
// counters start at zero and only see grants made while enabled.
func (e *Engine) EnableIncrementalCounting() {
	e.policyMu.RLock()
	specs := make([]PermSpec, 0, len(e.specs))
	for _, ps := range e.specs {
		specs = append(specs, ps)
	}
	e.policyMu.RUnlock()
	e.cntMu.Lock()
	if e.counters == nil {
		e.counters = make(map[string]int)
	}
	// Register the selectors of already-defined counting-only specs.
	for _, ps := range specs {
		e.registerSelectorsLocked(ps)
	}
	e.cntMu.Unlock()
	// Flip the flag last, after the counter state exists: eligibility
	// checks read it without the lock.
	e.incremental.Store(true)
}

// registerSelectorsLocked indexes the counting selectors of a spec so
// RecordGrant knows which counters an access touches; e.cntMu must be
// held for writing.
func (e *Engine) registerSelectorsLocked(ps PermSpec) {
	if ps.Spatial == nil || !countingOnly(ps.Spatial) {
		return
	}
	srac.Walk(ps.Spatial, func(x srac.Constraint) bool {
		if cnt, ok := x.(srac.Count); ok {
			key := selKey(cnt.Sel)
			if _, seen := e.selectors[key]; !seen {
				if e.selectors == nil {
					e.selectors = make(map[string]model.Selector)
				}
				e.selectors[key] = cnt.Sel
			}
		}
		return true
	})
}

// RecordGrant tells the engine an access was actually performed (the
// proof was issued). Servers call it once per granted access; the
// counter update is a no-op unless incremental counting is enabled,
// but the flight recorder logs the grant in either mode — so a
// stream recorded by a scan-mode engine still carries the state
// signal a forced-incremental replay needs.
//
// Counters are keyed by the canonical selector string. For a policy
// selector without an object restriction, the per-requester variant
// (the selector restricted to the accessing object, which
// counterLeaves reads) is maintained alongside the global one;
// selectors that already restrict objects count all matching
// accesses, mirroring the ledger-backed scan path.
func (e *Engine) RecordGrant(a model.Access) {
	e.recordGrantEvent(a)
	if col := e.costC.Load(); col != nil {
		// One access joined some object's history: the denominator of
		// the re-walk amplification gauge.
		col.NoteAppend()
	}
	if !e.incremental.Load() {
		return
	}
	e.cntMu.Lock()
	defer e.cntMu.Unlock()
	for key, sel := range e.selectors {
		if sel.SelectAccess(a) {
			e.counters[key]++
		}
		if len(sel.Objects) == 0 {
			stamped := sel
			stamped.Objects = []model.ObjectID{a.Object}
			if stamped.SelectAccess(a) {
				e.counters[selKey(stamped)]++
			}
		}
	}
}

// counterLeaves decides counting atoms from the engine counters plus
// the hypothetical requested access. An objectless selector reads the
// requester's own counter — the per-object variant RecordGrant keeps
// alongside the global one — so the walk binds the requester without
// stamping the constraint. e.cntMu must be held for reading across the
// walk, so one decision sees one counter snapshot.
type counterLeaves struct {
	e    *Engine
	self []model.ObjectID
	hyp  model.Access
}

// Match reports no witness: counting-only constraints have no atoms or
// orderings (incrementalEligible).
func (counterLeaves) Match(model.Access, int) int { return -1 }

func (l counterLeaves) Count(sel model.Selector) int {
	if len(sel.Objects) == 0 {
		sel.Objects = l.self
	}
	n := l.e.counters[selKey(sel)]
	if sel.SelectAccess(l.hyp) {
		n++
	}
	return n
}

// incrementalEligible reports whether the request can take the counter
// fast path.
func (e *Engine) incrementalEligible(ps PermSpec) bool {
	return e.incremental.Load() && ps.Spatial != nil && countingOnly(ps.Spatial)
}

// Counters returns a diagnostic snapshot of the engine's counters,
// keyed by canonical selector string.
func (e *Engine) Counters() map[string]int {
	e.cntMu.RLock()
	defer e.cntMu.RUnlock()
	out := make(map[string]int, len(e.counters))
	for k, v := range e.counters {
		out[k] = v
	}
	return out
}

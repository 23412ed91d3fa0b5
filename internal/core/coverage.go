package core

// SRAC clause coverage: with coverage enabled, every spatial prefix
// evaluation also records, per subformula of the permission's
// constraint, how often the clause was evaluated, what it evaluated
// to, and how often it was DECISIVE — the clause the prefix walk
// attributes the whole verdict to. Aggregated over traffic this exposes dead
// clauses (never evaluated, or never decisive) that a policy author
// can tighten or delete; /debug/coverage serves it and the federate
// poller folds it across the coalition.

import (
	"sort"

	"stac/internal/obs/perf"
	"stac/internal/rbac"
	"stac/internal/srac"
)

// covKey addresses one clause of one permission's spatial constraint.
type covKey struct {
	perm rbac.PermID
	path string
}

// covStripes shards the coverage cells by permission hash. Eight
// stripes keeps hot permissions on distinct mutexes; each stripe is a
// perf.Mutex, instrumented as coverage_00..coverage_07 alongside the
// engine's other stripes.
const covStripes = 8

// covStripe is one hashed slice of the coverage cell table.
type covStripe struct {
	mu    perf.Mutex
	cells map[covKey]*covCell
}

// covStripeFor hashes a permission onto its coverage stripe (FNV-1a).
func (e *Engine) covStripeFor(perm rbac.PermID) *covStripe {
	h := uint32(2166136261)
	for i := 0; i < len(perm); i++ {
		h ^= uint32(perm[i])
		h *= 16777619
	}
	return &e.cov[h%covStripes]
}

// covCell accumulates one clause's outcomes; guarded by its stripe's
// mutex.
type covCell struct {
	clause    string
	evaluated int64
	satisfied int64
	violated  int64
	pending   int64
	decisive  int64
}

// ClauseCoverage is the exported per-clause tally (one row of
// /debug/coverage).
type ClauseCoverage struct {
	// Perm and Path address the clause; Clause is its concrete syntax
	// (from the policy's unstamped constraint, so rows are comparable
	// across objects and members).
	Perm   string `json:"perm"`
	Path   string `json:"path"`
	Clause string `json:"clause"`
	// Evaluated counts prefix evaluations that reached the clause;
	// Satisfied/Violated/Pending split them by outcome; Decisive
	// counts evaluations whose whole-constraint verdict was attributed
	// to this clause.
	Evaluated int64 `json:"evaluated"`
	Satisfied int64 `json:"satisfied"`
	Violated  int64 `json:"violated"`
	Pending   int64 `json:"pending"`
	Decisive  int64 `json:"decisive"`
}

// Dead reports whether the clause never decided anything: either no
// evaluation ever reached it, or it was never the decisive clause.
func (c ClauseCoverage) Dead() bool { return c.Decisive == 0 }

// EnableCoverage turns on clause-coverage accounting and pre-seeds a
// cell for every clause of every registered permission, so clauses
// that never get evaluated still appear (with zero counts) — absence
// of evidence is the finding, not a missing row.
func (e *Engine) EnableCoverage() {
	e.policyMu.RLock()
	specs := make([]PermSpec, 0, len(e.specs))
	for _, ps := range e.specs {
		specs = append(specs, ps)
	}
	e.policyMu.RUnlock()
	for _, ps := range specs {
		e.seedCoverage(ps)
	}
	e.covEnabled.Store(true)
}

// CoverageEnabled reports whether clause coverage is being recorded.
func (e *Engine) CoverageEnabled() bool { return e.covEnabled.Load() }

func (e *Engine) seedCoverage(ps PermSpec) {
	if ps.Spatial == nil {
		return
	}
	st := e.covStripeFor(ps.Perm.ID)
	st.mu.Lock()
	defer st.mu.Unlock()
	srac.WalkPaths(ps.Spatial, func(path string, c srac.Constraint) {
		key := covKey{perm: ps.Perm.ID, path: path}
		if _, ok := st.cells[key]; !ok {
			st.cells[key] = &covCell{clause: srac.String(c)}
		}
	})
}

// Coverage returns the per-clause tallies, sorted by permission then
// clause path (parents before children).
func (e *Engine) Coverage() []ClauseCoverage {
	var out []ClauseCoverage
	for i := range e.cov {
		st := &e.cov[i]
		st.mu.Lock()
		for key, cell := range st.cells {
			out = append(out, ClauseCoverage{
				Perm:      string(key.perm),
				Path:      key.path,
				Clause:    cell.clause,
				Evaluated: cell.evaluated,
				Satisfied: cell.satisfied,
				Violated:  cell.violated,
				Pending:   cell.pending,
				Decisive:  cell.decisive,
			})
		}
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Perm != out[j].Perm {
			return out[i].Perm < out[j].Perm
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// applyCoverage folds one walk's node outcomes into the cells. Clause
// text comes from the policy's unstamped constraint resolved by path,
// so one row covers every requesting object.
func (e *Engine) applyCoverage(perm rbac.PermID, unstamped srac.Constraint, nodes []srac.NodeCost) {
	st := e.covStripeFor(perm)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, n := range nodes {
		key := covKey{perm: perm, path: n.Path}
		cell, ok := st.cells[key]
		if !ok {
			cell = &covCell{}
			if c, found := srac.SubclauseAt(unstamped, n.Path); found {
				cell.clause = srac.String(c)
			}
			st.cells[key] = cell
		}
		cell.evaluated++
		switch n.Status {
		case srac.Satisfied:
			cell.satisfied++
		case srac.Violated:
			cell.violated++
		default:
			cell.pending++
		}
		if n.Decisive {
			cell.decisive++
		}
	}
}

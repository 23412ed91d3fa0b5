package core

// Per-clause evaluation-cost profiling: with cost profiling enabled,
// the spatial prefix walk also records each clause's work (leaf
// evals, 1-in-64 sampled wall time), folded into an
// obs/cost.Collector keyed by the same (perm, path) identity coverage
// uses. Static checks feed a
// per-(program digest, policy digest) cost table, and every grant
// bumps the re-walk amplification denominator. /debug/cost serves the
// report; the federate poller folds it across the coalition; `stacctl
// heat` ranks the result. This is the measured "before picture" for
// the SRAC compilation arc (ROADMAP item 2).

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"time"

	"stac/internal/obs/cost"
	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/sral"
)

// EnableCostProfiling turns on per-clause evaluation-cost accounting,
// pre-seeding a cell for every clause of every registered permission
// (so never-evaluated clauses appear with zero cost) and caching the
// policy digest the static-check cost table is keyed under. The
// collector instruments its stripes into the engine's current
// registry; call after SetObs, before serving traffic.
func (e *Engine) EnableCostProfiling() {
	col := cost.New()
	col.Instrument(e.met.Load().reg)
	e.policyMu.RLock()
	specs := make([]PermSpec, 0, len(e.specs))
	for _, ps := range e.specs {
		specs = append(specs, ps)
	}
	e.policyMu.RUnlock()
	e.costC.Store(col)
	for _, ps := range specs {
		e.seedCost(ps)
	}
	e.refreshCostPolicyDigest()
	e.costEnabled.Store(true)
}

// CostEnabled reports whether evaluation-cost profiling is on.
func (e *Engine) CostEnabled() bool { return e.costEnabled.Load() }

// CostReport snapshots the per-clause cost profile, static-check cost
// table and re-walk amplification gauges (zero report when profiling
// is off).
func (e *Engine) CostReport() cost.Report {
	col := e.costC.Load()
	if col == nil {
		return cost.Report{}
	}
	return col.Report()
}

func (e *Engine) seedCost(ps PermSpec) {
	col := e.costC.Load()
	if col == nil || ps.Spatial == nil {
		return
	}
	srac.WalkPaths(ps.Spatial, func(path string, c srac.Constraint) {
		col.Seed(string(ps.Perm.ID), path, srac.String(c))
	})
}

// refreshCostPolicyDigest recomputes the cached policy digest after a
// policy mutation, so static-check rows always key against the digest
// of the policy they actually ran under.
func (e *Engine) refreshCostPolicyDigest() {
	d := PolicyDigest(e)
	e.costPolicy.Store(&d)
}

// clauseFold is one decision's per-node walk record on its way into
// clause coverage and cost profiling. The prefix walk fills the sink
// as it decides, so the decision walks its constraint once whichever
// aggregations are on; records are pooled, keeping the profiled
// decision path free of per-decision buffers.
type clauseFold struct {
	sink    srac.Sink
	cover   bool
	col     *cost.Collector // nil when cost profiling is off
	samples []cost.NodeSample
}

var clauseFoldPool = sync.Pool{New: func() any { return new(clauseFold) }}

// startFold returns a record for the next walk, or nil when neither
// coverage nor cost profiling is on. The walk is timed when the cost
// collector samples this evaluation (1-in-64).
func (e *Engine) startFold() *clauseFold {
	cover := e.covEnabled.Load()
	var col *cost.Collector
	if e.costEnabled.Load() {
		col = e.costC.Load()
	}
	if !cover && col == nil {
		return nil
	}
	f := clauseFoldPool.Get().(*clauseFold)
	f.cover, f.col = cover, col
	f.sink.Nodes = f.sink.Nodes[:0]
	f.sink.Timed = col != nil && col.SampleTick()
	return f
}

// finishFold folds a walk record into the coverage and cost cells and
// recycles it. histLen is the length of the scanned history, or -1
// for a counter-path walk. Callers must not hold e.cntMu: the counter
// lock and the coverage/cost stripes are never held together.
func (e *Engine) finishFold(f *clauseFold, perm rbac.PermID, unstamped srac.Constraint, histLen int) {
	if f == nil {
		return
	}
	if f.cover {
		e.applyCoverage(perm, unstamped, f.sink.Nodes)
	}
	if f.col != nil {
		if histLen >= 0 {
			f.col.NoteScan(histLen)
		} else {
			f.col.NoteIncremental()
		}
		f.samples = f.samples[:0]
		for _, n := range f.sink.Nodes {
			f.samples = append(f.samples, cost.NodeSample{Path: n.Path, Decisive: n.Decisive, Atoms: n.Atoms, NS: n.NS})
		}
		f.col.Record(string(perm), f.sink.Timed, f.samples, func(path string) string {
			if c, ok := srac.SubclauseAt(unstamped, path); ok {
				return srac.String(c)
			}
			return ""
		})
	}
	f.col = nil
	clauseFoldPool.Put(f)
}

// costStatic folds one static-check run into the (program digest,
// policy digest) cost table — the measured baseline for the planned
// verdict cache keyed on exactly that pair.
func (e *Engine) costStatic(program sral.Node, verdict srac.Verdict, elapsed time.Duration) {
	col := e.costC.Load()
	if col == nil {
		return
	}
	policy := ""
	if p := e.costPolicy.Load(); p != nil {
		policy = *p
	}
	col.RecordStatic(ProgramDigest(program), policy, verdict.String(), program.Size(), elapsed.Nanoseconds())
}

// ProgramDigest is the canonical digest of a declared SRAL program:
// sha256 over its concrete syntax, the program-side twin of
// PolicyDigest and the other half of the static-check cache key.
func ProgramDigest(p sral.Node) string {
	sum := sha256.Sum256([]byte(sral.String(p)))
	return hex.EncodeToString(sum[:])
}

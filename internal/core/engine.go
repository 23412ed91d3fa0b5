// Package core implements the paper's primary contribution: the
// coordinated spatio-temporal access control model. It extends the
// RBAC substrate so that a permission is granted to a mobile object
// iff
//
//   - Expression 3.1 (spatial): some role active in the object's
//     session confers the permission AND the object's program and
//     proof-backed access history satisfy the permission's SRAC
//     constraint, and
//   - Expression 4.1 (temporal): the permission is in the valid state
//     — the accumulated valid duration since the base time does not
//     exceed the permission's validity duration, under either the
//     per-server or the global base-time scheme.
//
// The Engine is the decision point coalition servers consult from
// their SecurityManager on every shared-resource access request.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stac/internal/hlc"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/cost"
	"stac/internal/obs/perf"
	"stac/internal/obs/record"
	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/trace"
)

// SpatialMode selects the enforcement reading of Definition 3.7 for a
// permission's spatial constraint.
type SpatialMode int

// Spatial enforcement modes.
const (
	// Admissible (the default) grants unless the post-state history
	// irreversibly violates the constraint: a not-yet-witnessed
	// required access or ordering is merely pending and the program
	// still has the chance to satisfy it. This is the right reading
	// for liveness-style obligations.
	Admissible SpatialMode = iota
	// Strict requires the post-state history to ALREADY satisfy the
	// constraint (Definition 3.6 on the executed trace). This gates
	// accesses on prior actions — e.g. "o2 may read the plan only
	// after companion o1 uploaded the key" — and is the reading for
	// safety-style pre-conditions.
	Strict
)

// String implements fmt.Stringer.
func (m SpatialMode) String() string {
	if m == Strict {
		return "strict"
	}
	return "admissible"
}

// PermSpec attaches the spatio-temporal extension to an RBAC
// permission: the spatial SRAC constraint and the validity duration
// with its base-time scheme.
type PermSpec struct {
	Perm rbac.Permission
	// Spatial is the SRAC constraint associated with the permission;
	// nil means T (no spatial requirement).
	Spatial srac.Constraint
	// Mode selects the enforcement reading of Spatial.
	Mode SpatialMode
	// Duration is dur(perm) in seconds; temporal.Infinite (the
	// default when zero) marks a time-insensitive permission.
	Duration float64
	// Scheme selects the base time t_b (global or per-server).
	Scheme temporal.Scheme
}

func (ps PermSpec) duration() float64 {
	if ps.Duration == 0 {
		return temporal.Infinite
	}
	return ps.Duration
}

// Request is one shared-resource access request by a mobile object.
type Request struct {
	// Session is the subject established for the object at the
	// current server.
	Session *rbac.Session
	// Access is the requested access (object stamped).
	Access model.Access
	// Program is the object's declared SRAL program; when non-nil the
	// engine statically rules out programs that can never satisfy the
	// permission's spatial constraint (check(P, C) of Section 3.4).
	Program sral.Node
	// History is the object's proof-backed access trace so far,
	// across all coalition servers.
	History trace.Trace
	// Proofs attests the history; nil means fully attested.
	Proofs srac.ProofOracle
}

// Decision explains an authorisation outcome.
type Decision struct {
	Granted bool
	// ID identifies this decision for cross-correlation (wire reply,
	// audit record, trace span). Minted by AuthorizeTraced when the
	// decision is traced; callers that persist untraced decisions mint
	// one with obs.NewDecisionID — the engine leaves it empty on the
	// unsampled hot path to keep that path allocation-free.
	ID string
	// Perm is the permission that covered the access (when any).
	Perm rbac.PermID
	// Spatial is the prefix-evaluation status of the spatial
	// constraint on the post-state of the request.
	Spatial srac.Status
	// ProgramVerdict is the static check of the program against the
	// constraint (AllTraces when no program or constraint was given).
	ProgramVerdict srac.Verdict
	// Temporal is the permission's temporal state at decision time.
	Temporal temporal.PermState
	// Deny classifies a denial for metrics and audit queries; empty on
	// grants.
	Deny DenyReason
	// Reason is a human-readable explanation of a denial.
	Reason string
	// Explanation attributes a denial to the specific violated SRAC
	// subformula or the exhausted temporal budget; nil on grants.
	Explanation *Explanation
	// HLC is the decision's hybrid logical timestamp: every decision
	// ticks the engine's HLC, the stamp rides the wire reply, and the
	// requesting agent folds it into its own clock — so decisions that
	// causally follow each other (hops of one itinerary) carry
	// strictly increasing timestamps coalition-wide even under clock
	// skew. Journal records and audit entries reuse this exact stamp.
	HLC hlc.Timestamp
}

// String implements fmt.Stringer.
func (d Decision) String() string {
	if d.Granted {
		return fmt.Sprintf("GRANT perm=%s spatial=%s temporal=%s", d.Perm, d.Spatial, d.Temporal)
	}
	return fmt.Sprintf("DENY %s", d.Reason)
}

// ErrNoSpec is returned when a permission referenced by the RBAC layer
// has no spatio-temporal specification.
var ErrNoSpec = errors.New("core: permission has no spatio-temporal spec")

// Engine is the coordinated access control decision point. It is safe
// for concurrent use.
type Engine struct {
	// RBAC is the underlying role-based substrate; policies register
	// users, roles and assignments directly on it.
	RBAC *rbac.System

	clock temporal.Clock

	// met holds the resolved metric handles; swapped atomically by
	// SetObs so the Authorize hot path never takes a lock for metrics.
	met atomic.Pointer[engineMetrics]
	// tracer records the per-decision span tree; swapped atomically by
	// SetTracer for the same reason. Defaults to obs.DefaultTracer
	// (sampling off), so an untraced engine pays only a nil-check.
	tracer atomic.Pointer[obs.Tracer]
	// incremental flags the counting fast path (see incremental.go);
	// atomic so eligibility checks stay outside the engine lock.
	incremental atomic.Bool
	// recorder is the attached decision flight recorder (see
	// record.go); nil when recording is off. Atomic for the same
	// hot-path reason as met and tracer.
	recorder atomic.Pointer[record.Recorder]
	// coverage aggregates per-clause SRAC outcomes (see coverage.go);
	// the flag is atomic so disabled engines pay one load per decision.
	covEnabled atomic.Bool

	// slo, when non-nil, classifies every decision latency against a
	// latency objective and derives the burn rate (see perf.SLOTracker).
	// Atomic like met/tracer; a nil tracker's methods are inert.
	slo atomic.Pointer[perf.SLOTracker]

	// hlcClock is the engine's hybrid logical clock (see Decision.HLC).
	// Atomic only so SetHLCWall (tests, skew injection) can swap the
	// wall source without racing the decision path.
	hlcClock atomic.Pointer[hlc.Clock]

	// policyMu guards the read-mostly policy tables: permission specs
	// and permission classes. Decisions only ever take the read lock;
	// the write lock is held by DefinePermission/DefineClass (setup and
	// policy reload), so concurrent authorizations never serialize on
	// policy lookups. The perf wrapper samples wait/hold times per
	// stripe; uninstrumented it is one nil-check over sync.RWMutex.
	policyMu perf.RWMutex
	specs    map[rbac.PermID]PermSpec
	// classes aggregate validity durations across permissions (the
	// conclusion's future-work extension; see aggregate.go).
	classes map[ClassID]Class
	classOf map[rbac.PermID]ClassID

	// cntMu guards the incremental counting state (see incremental.go).
	// decideSpatial holds the read lock across its whole constraint
	// walk so a decision sees an atomic counter snapshot; RecordGrant
	// takes the write lock per executed access.
	cntMu     perf.RWMutex
	counters  map[string]int
	selectors map[string]model.Selector

	// shards hold the per-object runtime state (temporal trackers,
	// budget series, arrival bookkeeping, recorder history bases),
	// hashed by object ID. Independent credentials land on independent
	// shards — and even within a shard, the shard lock only covers the
	// map lookup; mutation happens under the objectState's own lock.
	shards [numShards]engineShard

	// cov holds the per-permission SRAC clause coverage cells (see
	// coverage.go), sharded by permission hash behind instrumented
	// perf.Mutex stripes — separate from the tracker/spec state so
	// coverage bookkeeping never contends with it, and visible in the
	// lock-stripe telemetry instead of being an invisible global
	// serialization point on the decide path.
	cov [covStripes]covStripe

	// costEnabled/costC hold the per-clause evaluation-cost profiler
	// (see cost.go): the flag is atomic like covEnabled, and the
	// collector pointer swaps atomically so a disabled engine pays one
	// load per decision. costPolicy caches the current policy digest
	// for the static-check cost table — recomputed on policy change,
	// never on the decide path.
	costEnabled atomic.Bool
	costC       atomic.Pointer[cost.Collector]
	costPolicy  atomic.Pointer[string]
}

// numShards is the object-state shard count. Sized well above typical
// core counts so hash collisions between concurrently active
// credentials are rare; must be a power of two for the mask below.
const numShards = 32

// engineShard is one hashed slice of the per-object state table.
type engineShard struct {
	mu   perf.RWMutex
	objs map[model.ObjectID]*objectState
}

// objectState is everything the engine tracks for one mobile object.
// All of it used to live in engine-global maps behind one mutex; now
// two objects only share a lock when they hash to the same shard, and
// even then only for the get-or-create lookup.
type objectState struct {
	mu sync.Mutex
	// trackers holds the temporal validity trackers keyed by the
	// resolved tracker identity (the permission's own ID, or its class
	// pool key when classed).
	trackers map[rbac.PermID]*temporal.Tracker
	// budgets holds the per-tracker consumption time series fed by
	// SampleBudgets (see budget.go); lazily created per tracker.
	budgets map[rbac.PermID]*obs.TimeSeries
	// lastArrival/hasArrived record the object's server arrivals, so
	// trackers created later inherit the base time.
	lastArrival float64
	hasArrived  bool

	// recMu guards recHist and recProg: the proof-backed history
	// entries the flight recorder has already emitted for this object,
	// against which recordDecide delta-encodes the next decide record,
	// and the declared program of the object's previous decide record,
	// against which programs are interned (see record.go). A separate
	// lock so recording never blocks the temporal bookkeeping above.
	recMu   sync.Mutex
	recHist []record.HistoryEntry
	recProg sral.Node
}

// shardFor hashes an object ID onto its shard (FNV-1a).
func (e *Engine) shardFor(obj model.ObjectID) *engineShard {
	h := uint32(2166136261)
	for i := 0; i < len(obj); i++ {
		h ^= uint32(obj[i])
		h *= 16777619
	}
	return &e.shards[h&(numShards-1)]
}

// objState returns (creating if needed) the object's state. The fast
// path is one shard read-lock and a map hit.
func (e *Engine) objState(obj model.ObjectID) *objectState {
	sh := e.shardFor(obj)
	sh.mu.RLock()
	os, ok := sh.objs[obj]
	sh.mu.RUnlock()
	if ok {
		return os
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if os, ok = sh.objs[obj]; ok {
		return os
	}
	os = &objectState{
		trackers: make(map[rbac.PermID]*temporal.Tracker),
		budgets:  make(map[rbac.PermID]*obs.TimeSeries),
	}
	sh.objs[obj] = os
	return os
}

// lookupObj returns the object's state without creating it.
func (e *Engine) lookupObj(obj model.ObjectID) (*objectState, bool) {
	sh := e.shardFor(obj)
	sh.mu.RLock()
	os, ok := sh.objs[obj]
	sh.mu.RUnlock()
	return os, ok
}

// trackerLocked returns (creating if needed) the tracker for a
// resolved tracker identity; s.mu must be held.
func (s *objectState) trackerLocked(key rbac.PermID, dur float64, scheme temporal.Scheme) *temporal.Tracker {
	tr, ok := s.trackers[key]
	if !ok {
		tr = temporal.NewTracker(dur, scheme)
		if s.hasArrived {
			tr.ArriveServer(s.lastArrival)
		}
		s.trackers[key] = tr
	}
	return tr
}

// NewEngine creates an engine over a fresh RBAC system using the given
// clock (nil defaults to a simulated clock starting at 0 — callers in
// production pass temporal.NewRealClock()).
func NewEngine(clock temporal.Clock) *Engine {
	if clock == nil {
		clock = temporal.NewSimClock(0)
	}
	e := &Engine{
		RBAC:    rbac.NewSystem(),
		clock:   clock,
		specs:   make(map[rbac.PermID]PermSpec),
		classes: make(map[ClassID]Class),
		classOf: make(map[rbac.PermID]ClassID),
	}
	for i := range e.shards {
		e.shards[i].objs = make(map[model.ObjectID]*objectState)
	}
	for i := range e.cov {
		e.cov[i].cells = make(map[covKey]*covCell)
	}
	e.met.Store(newEngineMetrics(obs.Default))
	e.instrumentLocks(obs.Default)
	e.tracer.Store(obs.DefaultTracer)
	e.hlcClock.Store(hlc.New(hlc.WallFromTemporal(clock)))
	return e
}

// instrumentLocks points the engine's lock stripes at per-stripe
// telemetry sinks in the given registry. The stripes share the
// registry's histogram families, so engines reconciled onto the same
// registry (the obs.Default case in tests) merge their stripe
// telemetry exactly as they merge decision counters.
func (e *Engine) instrumentLocks(r *obs.Registry) {
	e.policyMu.Instrument(perf.NewLockStats(r, "policy"))
	e.cntMu.Instrument(perf.NewLockStats(r, "counters"))
	for i := range e.shards {
		e.shards[i].mu.Instrument(perf.NewLockStats(r, fmt.Sprintf("shard_%02d", i)))
	}
	for i := range e.cov {
		e.cov[i].mu.Instrument(perf.NewLockStats(r, fmt.Sprintf("coverage_%02d", i)))
	}
	if col := e.costC.Load(); col != nil {
		col.Instrument(r)
	}
}

// Clock returns the engine's clock.
func (e *Engine) Clock() temporal.Clock { return e.clock }

// HLC returns the engine's hybrid logical clock. Servers observe
// request timestamps on it before deciding, so the decision stamp
// dominates everything the requester had seen.
func (e *Engine) HLC() *hlc.Clock { return e.hlcClock.Load() }

// SetHLCWall replaces the HLC's physical wall source — clock-skew
// injection for tests (faults.WallSkew) and the hook a deployment
// with a disciplined time service would use. The logical component
// restarts; causal monotonicity against previously issued stamps is
// only preserved going forward if the new source is not behind the
// old one by more than the logical counter can absorb, so swap before
// traffic, not during.
func (e *Engine) SetHLCWall(wall func() int64) {
	e.hlcClock.Store(hlc.New(wall))
}

// SetObs points the engine's decision-path metrics at a registry
// other than obs.Default — tests and embedders use it to reconcile one
// engine's counters in isolation. Call it during setup, before serving
// traffic, so no decision lands between two registries.
func (e *Engine) SetObs(r *obs.Registry) {
	e.met.Store(newEngineMetrics(r))
	e.instrumentLocks(r)
}

// SetSLO attaches a latency SLO to the decision path: every decision
// is classified against the target and the burn rate becomes available
// through SLOSnapshot/PublishPerf. A zero Target detaches.
func (e *Engine) SetSLO(slo perf.SLO) {
	if slo.Target <= 0 {
		e.slo.Store(nil)
		return
	}
	e.slo.Store(perf.NewSLOTracker(slo))
}

// SLOSnapshot reports the attached SLO's health (zero snapshot when no
// SLO is set).
func (e *Engine) SLOSnapshot() perf.SLOSnapshot { return e.slo.Load().Snapshot() }

// SLOTracker exposes the attached tracker (nil when no SLO is set) so
// the daemon's budget sampler can append burn-rate samples.
func (e *Engine) SLOTracker() *perf.SLOTracker { return e.slo.Load() }

// Obs returns the registry the engine currently reports into.
func (e *Engine) Obs() *obs.Registry { return e.met.Load().reg }

// SetTracer points the engine's decision span tree at a tracer other
// than obs.DefaultTracer (nil restores the default). Like SetObs, call
// it during setup.
func (e *Engine) SetTracer(t *obs.Tracer) {
	if t == nil {
		t = obs.DefaultTracer
	}
	e.tracer.Store(t)
}

// Tracer returns the tracer the engine currently records spans into.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer.Load() }

// DefinePermission registers a permission together with its
// spatio-temporal specification.
func (e *Engine) DefinePermission(ps PermSpec) error {
	if ps.Spatial != nil {
		if err := srac.Validate(ps.Spatial); err != nil {
			return fmt.Errorf("core: permission %q: %w", ps.Perm.ID, err)
		}
	}
	if err := e.RBAC.AddPermission(ps.Perm); err != nil {
		return err
	}
	e.policyMu.Lock()
	e.specs[ps.Perm.ID] = ps
	e.policyMu.Unlock()
	if e.incremental.Load() {
		e.cntMu.Lock()
		e.registerSelectorsLocked(ps)
		e.cntMu.Unlock()
	}
	if e.covEnabled.Load() {
		e.seedCoverage(ps)
	}
	if e.costEnabled.Load() {
		e.seedCost(ps)
		e.refreshCostPolicyDigest()
	}
	return nil
}

// Spec returns the spatio-temporal specification of a permission.
func (e *Engine) Spec(id rbac.PermID) (PermSpec, error) {
	e.policyMu.RLock()
	defer e.policyMu.RUnlock()
	ps, ok := e.specs[id]
	if !ok {
		return PermSpec{}, fmt.Errorf("%w: %q", ErrNoSpec, id)
	}
	return ps, nil
}

// tracker returns (creating if needed) the temporal tracker governing
// a permission for an object — the permission's own tracker, or its
// class pool when the permission is classed.
func (e *Engine) tracker(obj model.ObjectID, ps PermSpec) *temporal.Tracker {
	key, dur, scheme := e.resolveTemporal(ps)
	os := e.objState(obj)
	os.mu.Lock()
	defer os.mu.Unlock()
	return os.trackerLocked(key, dur, scheme)
}

// ObjectArrived records that a mobile object has arrived at a server
// at the current clock time. Under the per-server scheme this resets
// the temporal budgets of all the object's permissions (t_b = t_i);
// under the global scheme only the first arrival establishes t_b.
// Only the arriving object's shard is touched — other credentials'
// decisions proceed undisturbed.
func (e *Engine) ObjectArrived(obj model.ObjectID, server model.ServerID) {
	now := e.clock.Now()
	e.recordArrive(obj, server, now)
	os := e.objState(obj)
	os.mu.Lock()
	defer os.mu.Unlock()
	os.lastArrival = now
	os.hasArrived = true
	for _, tr := range os.trackers {
		tr.ArriveServer(now)
	}
}

// sessionTrackers snapshots the specs under one policy read-lock and
// resolves (creating if needed) the trackers for every permission the
// session confers under one objectState lock. The trackers are
// internally locked, so callers mutate them after release.
func (e *Engine) sessionTrackers(sess *rbac.Session, obj model.ObjectID) []*temporal.Tracker {
	perms := sess.Permissions()
	type resolved struct {
		key    rbac.PermID
		dur    float64
		scheme temporal.Scheme
	}
	rs := make([]resolved, 0, len(perms))
	e.policyMu.RLock()
	for _, p := range perms {
		ps, ok := e.specs[p.ID]
		if !ok {
			ps = PermSpec{Perm: p}
		}
		key, dur, scheme := e.resolveTemporalLocked(ps)
		rs = append(rs, resolved{key: key, dur: dur, scheme: scheme})
	}
	e.policyMu.RUnlock()
	os := e.objState(obj)
	trs := make([]*temporal.Tracker, 0, len(rs))
	os.mu.Lock()
	for _, r := range rs {
		trs = append(trs, os.trackerLocked(r.key, r.dur, r.scheme))
	}
	os.mu.Unlock()
	return trs
}

// ActivatePermissions marks every permission conferred by the
// session's active roles as temporally active for the object —
// role activation starts the validity accumulation of Section 4.
func (e *Engine) ActivatePermissions(sess *rbac.Session, obj model.ObjectID) {
	now := e.clock.Now()
	e.recordSession(record.KindActivate, sess, obj, now)
	for _, tr := range e.sessionTrackers(sess, obj) {
		tr.Activate(now)
	}
}

// DeactivatePermissions closes the valid periods of the session's
// permissions (role deactivation or session end).
func (e *Engine) DeactivatePermissions(sess *rbac.Session, obj model.ObjectID) {
	now := e.clock.Now()
	e.recordSession(record.KindDeactivate, sess, obj, now)
	for _, tr := range e.sessionTrackers(sess, obj) {
		tr.Deactivate(now)
	}
}

// Authorize decides a shared-resource access request — the
// checkPermission interposition of the coalition SecurityManager. It
// evaluates, in order: the RBAC layer (some active role confers a
// covering permission), the spatial constraint (static program check
// and prefix evaluation of the post-state history), and the temporal
// validity (Expression 4.1).
func (e *Engine) Authorize(req Request) Decision {
	return e.AuthorizeTraced(obs.TraceContext{}, req)
}

// AuthorizeTraced is Authorize under a propagated trace context: when
// the context is sampled (and the engine's tracer is recording), the
// decision emits a span tree — authorize → static_check / prefix_eval
// / temporal_check — and the Decision carries a freshly minted ID
// correlating it with the spans. With an invalid or unsampled context
// the tracing cost is a few branches and the ID stays empty (lazy
// minting: persistent consumers mint one themselves).
func (e *Engine) AuthorizeTraced(tc obs.TraceContext, req Request) Decision {
	m := e.met.Load()
	t := e.tracer.Load()
	sp, ctx := t.StartSpan(tc, "authorize")
	start := time.Now()
	d := e.authorize(ctx, t, req, m, nil)
	d.HLC = e.hlcClock.Load().Now()
	elapsed := time.Since(start)
	m.recordDecision(d, elapsed)
	e.slo.Load().Observe(elapsed)
	if sp != nil {
		d.ID = obs.NewDecisionID()
		sp.SetService("engine")
		sp.SetAttr("decision_id", d.ID)
		sp.SetAttr("object", string(req.Access.Object))
		sp.SetAttr("access", req.Access.String())
		sp.SetAttr("granted", strconv.FormatBool(d.Granted))
		if !d.Granted {
			sp.SetAttr("deny", string(d.Deny))
		}
		sp.Finish()
	}
	m.captureExemplar(&d, elapsed, ctx)
	e.recordDecide(tc, req, d)
	return d
}

// AuthorizeMany decides a burst of requests in one call — the entry
// point for agents issuing accesses in batches. Decisions come back in
// request order and are observable exactly as if each request went
// through Authorize (same metrics, same flight-recorder records), but
// the metric handles, tracer and permission-spec lookups are resolved
// once per batch instead of once per request, so a burst against the
// same few permissions never re-takes the policy read lock.
func (e *Engine) AuthorizeMany(reqs []Request) []Decision {
	out := make([]Decision, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	m := e.met.Load()
	t := e.tracer.Load()
	m.batchInflight.Inc()
	defer m.batchInflight.Dec()
	m.batchSize.ObserveValue(float64(len(reqs)))
	slo := e.slo.Load()
	// Per-batch spec cache: the batch decides against one policy
	// snapshot (a concurrent DefinePermission lands on the next batch).
	cache := make(map[rbac.PermID]PermSpec, 8)
	for i := range reqs {
		start := time.Now()
		d := e.authorize(obs.TraceContext{}, t, reqs[i], m, cache)
		d.HLC = e.hlcClock.Load().Now()
		elapsed := time.Since(start)
		m.recordDecision(d, elapsed)
		slo.Observe(elapsed)
		m.captureExemplar(&d, elapsed, obs.TraceContext{})
		e.recordDecide(obs.TraceContext{}, reqs[i], d)
		out[i] = d
	}
	return out
}

// specFor resolves a permission's spec, falling back to an
// unconstrained spec for permissions registered directly on the RBAC
// layer. With a non-nil cache (AuthorizeMany), repeated lookups skip
// the policy read lock.
func (e *Engine) specFor(perm rbac.Permission, cache map[rbac.PermID]PermSpec) PermSpec {
	if cache != nil {
		if ps, ok := cache[perm.ID]; ok {
			return ps
		}
	}
	ps, err := e.Spec(perm.ID)
	if err != nil {
		ps = PermSpec{Perm: perm}
	}
	if cache != nil {
		cache[perm.ID] = ps
	}
	return ps
}

// authorize is the uninstrumented decision body; AuthorizeTraced wraps
// it with timing, per-outcome accounting and the decision span. cache,
// when non-nil, memoises spec lookups across a batch (AuthorizeMany).
func (e *Engine) authorize(tc obs.TraceContext, t *obs.Tracer, req Request, m *engineMetrics, cache map[rbac.PermID]PermSpec) Decision {
	d := Decision{Spatial: srac.Satisfied, ProgramVerdict: srac.AllTraces, Temporal: temporal.Inactive}
	if req.Session == nil {
		d.Deny = DenyNoSession
		d.Reason = "no session (unauthenticated subject)"
		return d
	}
	if err := req.Access.Validate(); err != nil {
		d.Deny = DenyInvalidAccess
		d.Reason = err.Error()
		return d
	}
	perm, ok := req.Session.PermissionFor(req.Access)
	if !ok {
		d.Deny = DenyRBAC
		d.Reason = fmt.Sprintf("no active role of %q confers a permission covering %s",
			req.Session.User(), req.Access)
		return d
	}
	d.Perm = perm.ID

	// Permissions registered directly on the RBAC layer resolve to an
	// unconstrained spec (T, time-insensitive).
	ps := e.specFor(perm, cache)

	obj := req.Access.Object

	// --- Spatial constraint (Expression 3.1). ---
	if ps.Spatial != nil {
		// check(P, C): a program that can never satisfy C disqualifies
		// the object up front. Constraints that mention a companion's
		// actions cannot be decided from this object's program alone,
		// so they are left to the runtime history check.
		if req.Program != nil && !srac.MentionsOtherObject(ps.Spatial, obj) {
			stamped := srac.StampObject(ps.Spatial, obj)
			csp, _ := t.StartSpan(tc, "static_check")
			csp.SetService("engine")
			checkStart := time.Now()
			d.ProgramVerdict = srac.CheckProgram(req.Program, stamped, obj)
			checkElapsed := time.Since(checkStart)
			m.staticCheck.Observe(checkElapsed)
			if e.costEnabled.Load() {
				e.costStatic(req.Program, d.ProgramVerdict, checkElapsed)
			}
			csp.SetAttr("verdict", d.ProgramVerdict.String())
			csp.Finish()
			if d.ProgramVerdict == srac.NoTrace {
				d.Spatial = srac.Violated
				d.Deny = DenyProgram
				d.Reason = fmt.Sprintf("program can never satisfy spatial constraint %s",
					srac.String(ps.Spatial))
				d.Explanation = &Explanation{
					Constraint: srac.String(ps.Spatial),
					Clause:     srac.String(stamped),
					Detail:     "static check: no trace of the declared program satisfies the constraint",
				}
				return d
			}
		}
		if !e.decideSpatial(tc, t, m, req, ps, &d) {
			return d
		}
	}

	// --- Temporal validity (Expression 4.1). ---
	tsp, _ := t.StartSpan(tc, "temporal_check")
	tsp.SetService("engine")
	tr := e.tracker(obj, ps)
	now := e.clock.Now()
	// Role activation in this session implies the permission is
	// active; make sure the tracker reflects it (idempotent).
	tr.Activate(now)
	d.Temporal = tr.StateAt(now)
	tsp.SetAttr("state", d.Temporal.String())
	tsp.Finish()
	if d.Temporal != temporal.Valid {
		if d.Temporal == temporal.ActiveInvalid {
			d.Deny = DenyTemporalExhausted
		} else {
			d.Deny = DenyTemporalInactive
		}
		_, dur, scheme := e.resolveTemporal(ps)
		d.Reason = fmt.Sprintf("permission %q is %s (validity duration %.6gs, scheme %s)",
			perm.ID, d.Temporal, dur, scheme)
		budget := dur
		if budget == temporal.Infinite {
			budget = -1
		}
		remaining := tr.Remaining(now)
		if remaining == temporal.Infinite {
			remaining = -1
		}
		d.Explanation = &Explanation{Temporal: &TemporalExplanation{
			Consumed:  tr.Accumulated(now),
			Budget:    budget,
			Remaining: remaining,
			Scheme:    scheme.String(),
		}}
		return d
	}

	d.Granted = true
	return d
}

// decideSpatial is the prefix evaluation of the post-state — the
// requested access hypothetically performed and proven — as ONE walk
// of the policy's constraint, bound to the requesting object by its
// leaves: engine counters on the counting-only fast path (see
// incremental.go), a scan of the carried history otherwise. The walk
// yields the verdict, the Definition 3.6 truth Strict mode gates on,
// and the per-node record coverage and cost fold in; a denial
// additionally renders just the attributed clause. It reports whether
// the spatial check passed, filling d's denial fields when not.
func (e *Engine) decideSpatial(tc obs.TraceContext, t *obs.Tracer, m *engineMetrics, req Request, ps PermSpec, d *Decision) bool {
	obj := req.Access.Object
	fold := e.startFold()
	var sink *srac.Sink
	if fold != nil {
		sink = &fold.sink
	}
	denied := func(a srac.Attribution) bool {
		return a.Status == srac.Violated || (ps.Mode == Strict && !a.Holds)
	}
	esp, _ := t.StartSpan(tc, "prefix_eval")
	esp.SetService("engine")
	evalStart := time.Now()
	var leaves srac.Leaves
	histLen := -1
	unlock := func() {}
	if e.incrementalEligible(ps) {
		leaves = counterLeaves{e: e, self: []model.ObjectID{obj}, hyp: req.Access}
		// The read lock spans the walk and any denial render, so both
		// see one counter snapshot; it is released before the fold.
		e.cntMu.RLock()
		unlock = e.cntMu.RUnlock
	} else {
		hyp := req.History.Concat(trace.Trace{req.Access})
		leaves = srac.ScanAs(hyp, srac.HypotheticalOracle(req.Proofs, req.Access), obj)
		histLen = len(hyp)
	}
	var why srac.Attribution
	a := srac.EvalWith(ps.Spatial, leaves, sink)
	if denied(a) {
		why = srac.ExplainWith(srac.StampObject(a.Clause, obj), leaves)
	}
	unlock()
	m.prefixEval.ObserveSince(evalStart)
	path := "scan"
	if histLen < 0 {
		path = "incremental"
	}
	esp.SetAttr("path", path)
	esp.SetAttr("status", a.Status.String())
	if histLen >= 0 {
		esp.SetAttr("history_len", strconv.Itoa(histLen))
	}
	esp.Finish()
	e.finishFold(fold, ps.Perm.ID, ps.Spatial, histLen)

	d.Spatial = a.Status
	if !denied(a) {
		return true
	}
	// Satisfied implies Holds, so a Strict-mode denial is Pending.
	if a.Status == srac.Violated {
		d.Deny = DenySpatialViolated
		d.Reason = fmt.Sprintf("spatial constraint %s irreversibly violated", srac.String(ps.Spatial))
	} else {
		d.Deny = DenySpatialStrict
		d.Reason = fmt.Sprintf("spatial constraint %s not yet satisfied (strict mode)", srac.String(ps.Spatial))
	}
	d.Explanation = spatialExplanation(ps.Spatial, why)
	return false
}

// trackerFor resolves the tracker currently governing a permission for
// an object (class pool or own), without creating one.
func (e *Engine) trackerFor(obj model.ObjectID, id rbac.PermID) (*temporal.Tracker, float64, bool) {
	ps, err := e.Spec(id)
	if err != nil {
		ps = PermSpec{Perm: rbac.Permission{ID: id}}
	}
	key, dur, _ := e.resolveTemporal(ps)
	os, found := e.lookupObj(obj)
	if !found {
		return nil, dur, false
	}
	os.mu.Lock()
	tr, ok := os.trackers[key]
	os.mu.Unlock()
	return tr, dur, ok
}

// PermissionState reports the temporal state of a permission for an
// object at the current time.
func (e *Engine) PermissionState(obj model.ObjectID, id rbac.PermID) temporal.PermState {
	tr, _, ok := e.trackerFor(obj, id)
	if !ok {
		return temporal.Inactive
	}
	return tr.StateAt(e.clock.Now())
}

// RemainingValidity returns the unused validity duration of a
// permission for an object. For a classed permission this is the
// remaining pooled budget of its class.
func (e *Engine) RemainingValidity(obj model.ObjectID, id rbac.PermID) float64 {
	tr, dur, ok := e.trackerFor(obj, id)
	if !ok {
		if _, err := e.Spec(id); err != nil {
			return 0
		}
		return dur
	}
	return tr.Remaining(e.clock.Now())
}

package server

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"stac/internal/core"
	"stac/internal/obs"
	"stac/internal/obs/perf"
)

// DebugServer bundles the daemon's observability surface: Prometheus
// metrics, expvar, pprof, the span ring, decision explanations, the
// temporal-budget series, versioned fleet snapshots, health probes and
// the /debug/watch decision stream. The fleet poller
// (internal/obs/federate) and stacctl's top/watch verbs speak to these
// endpoints.
type DebugServer struct {
	c       *Coalition
	daemons []*Daemon
	tracer  *obs.Tracer
	cfg     DebugConfig

	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// journal tracks /debug/journal tails and their metrics.
	journal *journalTelemetry
}

// DebugConfig tunes the observability surface.
type DebugConfig struct {
	// Registry backs /metrics and /debug/vars (nil = obs.Default).
	Registry *obs.Registry
	// BudgetTail bounds the series tail in /debug/snapshot (0 = a
	// default of 32; negative = full retained window).
	BudgetTail int
	// Heartbeat is the SSE keep-alive comment interval for
	// /debug/watch (0 = 15 s).
	Heartbeat time.Duration
	// Profiler, when non-nil, serves the continuous-profiling ring at
	// /debug/perf (summary + raw pprof snapshots). The DebugServer does
	// not own its lifecycle — the daemon Starts/Stops it.
	Profiler *perf.Profiler
}

const (
	defaultSnapshotTail   = 32
	defaultWatchHeartbeat = 15 * time.Second
)

// NewDebugServer builds the observability surface for a coalition and
// its TCP daemons. tracer may be nil (the /debug/trace endpoint then
// reports tracing disabled).
func NewDebugServer(c *Coalition, daemons []*Daemon, tracer *obs.Tracer, cfg DebugConfig) *DebugServer {
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.BudgetTail == 0 {
		cfg.BudgetTail = defaultSnapshotTail
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = defaultWatchHeartbeat
	}
	return &DebugServer{
		c:       c,
		daemons: daemons,
		tracer:  tracer,
		cfg:     cfg,
		quit:    make(chan struct{}),
		journal: newJournalTelemetry(cfg.Registry),
	}
}

// Mux returns the HTTP handler serving every observability endpoint.
func (h *DebugServer) Mux() *http.ServeMux {
	obs.PublishExpvar("stac", h.cfg.Registry)
	mux := http.NewServeMux()
	metricsHandler := obs.Handler(h.cfg.Registry)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Refresh the stac_go_* runtime gauges and the derived perf
		// gauges (shard imbalance, SLO burn rate) on every scrape.
		obs.PublishRuntime(h.cfg.Registry)
		h.c.Engine.PublishPerf()
		metricsHandler.ServeHTTP(w, r)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/trace", obs.TraceHandler(h.tracer.Store()))
	mux.HandleFunc("/debug/explain", h.handleExplain)
	mux.HandleFunc("/debug/budgets", h.handleBudgets)
	mux.HandleFunc("/debug/snapshot", h.handleSnapshot)
	mux.HandleFunc("/debug/coverage", h.handleCoverage)
	mux.HandleFunc("/debug/cost", h.handleCost)
	mux.HandleFunc("/debug/perf", h.handlePerf)
	mux.HandleFunc("/healthz", h.handleHealthz)
	mux.HandleFunc("/readyz", h.handleReadyz)
	mux.HandleFunc("/debug/watch", h.handleWatch)
	mux.HandleFunc("/debug/journal", h.handleJournal)
	return mux
}

// StartBudgetSampler samples every active temporal budget at the given
// interval, feeding the burn-rate windows even when nobody scrapes.
// Stopped by Drain.
func (h *DebugServer) StartBudgetSampler(interval time.Duration) {
	if interval <= 0 {
		return
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.c.Engine.SampleBudgets(0)
			case <-h.quit:
				return
			}
		}
	}()
}

// Drain releases every streaming handler (watch subscribers) and stops
// the budget sampler, then waits for them to exit. Call it BEFORE
// http.Server.Shutdown: Shutdown waits for in-flight handlers, and an
// SSE stream never finishes on its own.
func (h *DebugServer) Drain() {
	h.stopOnce.Do(func() { close(h.quit) })
	h.wg.Wait()
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (h *DebugServer) handleExplain(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing id parameter", http.StatusBadRequest)
		return
	}
	rec, ok := h.c.Explain(id)
	if !ok {
		http.Error(w, "unknown decision id (window may have evicted it)", http.StatusNotFound)
		return
	}
	writeJSON(w, rec.Entry())
}

func (h *DebugServer) handleBudgets(w http.ResponseWriter, r *http.Request) {
	tail := h.cfg.BudgetTail
	if arg := r.URL.Query().Get("tail"); arg != "" {
		if _, err := fmt.Sscanf(arg, "%d", &tail); err != nil {
			http.Error(w, "bad tail parameter", http.StatusBadRequest)
			return
		}
	}
	writeJSON(w, h.c.Engine.SampleBudgets(tail))
}

func (h *DebugServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	tail := h.cfg.BudgetTail
	if arg := r.URL.Query().Get("tail"); arg != "" {
		if _, err := fmt.Sscanf(arg, "%d", &tail); err != nil {
			http.Error(w, "bad tail parameter", http.StatusBadRequest)
			return
		}
	}
	snap := h.c.Snapshot(tail, h.daemons...)
	// The journal tails live on the DebugServer, not the coalition, so
	// their state is folded in here rather than in Coalition.Snapshot.
	if h.c.Engine.Recorder() != nil {
		st := h.journal.Stats()
		snap.Journal = &st
	}
	writeJSON(w, snap)
}

// handleCoverage serves the per-clause SRAC evaluation census: every
// subformula of every permission's spatial constraint with its
// evaluated/satisfied/violated/pending/decisive counts. A clause with
// zero decisive evaluations never changed a verdict — dead policy.
func (h *DebugServer) handleCoverage(w http.ResponseWriter, r *http.Request) {
	if !h.c.Engine.CoverageEnabled() {
		http.Error(w, "clause coverage disabled on this daemon", http.StatusNotFound)
		return
	}
	cov := h.c.Engine.Coverage()
	if cov == nil {
		cov = []core.ClauseCoverage{}
	}
	writeJSON(w, cov)
}

// handleCost serves the per-clause evaluation-cost profile: clause
// heat (evals, atoms, sampled ns), the per-(program, policy)
// static-check cost table and the re-walk amplification gauges — the
// measured before-picture for the SRAC compilation arc.
func (h *DebugServer) handleCost(w http.ResponseWriter, r *http.Request) {
	if !h.c.Engine.CostEnabled() {
		http.Error(w, "cost profiling disabled on this daemon", http.StatusNotFound)
		return
	}
	writeJSON(w, h.c.Engine.CostReport())
}

// handlePerf serves the hot-path performance view: the engine's
// lock-stripe/imbalance/SLO/exemplar snapshot plus, when a profiler is
// attached, the continuous-profiling digests. ?kind=cpu|mutex|block|heap
// (optionally &seq=N) fetches a raw pprof snapshot for `go tool pprof`.
func (h *DebugServer) handlePerf(w http.ResponseWriter, r *http.Request) {
	p := h.cfg.Profiler
	if r.URL.Query().Get("kind") != "" {
		if p == nil {
			http.Error(w, "profiler disabled on this daemon", http.StatusNotFound)
			return
		}
		p.Handler().ServeHTTP(w, r)
		return
	}
	out := struct {
		Engine   core.PerfStats   `json:"engine"`
		Profiles []*perf.Snapshot `json:"profiles,omitempty"`
	}{Engine: h.c.Engine.PerfStats()}
	if p != nil {
		out.Profiles = p.Snapshots()
	}
	writeJSON(w, out)
}

func (h *DebugServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeHealth(w, h.c.Liveness())
}

func (h *DebugServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	writeHealth(w, h.c.Readiness(h.daemons...))
}

func writeHealth(w http.ResponseWriter, health Health) {
	w.Header().Set("Content-Type", "application/json")
	if !health.OK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(health)
}

// watchFilter is the /debug/watch query-parameter filter.
type watchFilter struct {
	object  string
	perm    string
	verdict string // "", "grant" or "deny"
	server  string
}

func watchFilterFromQuery(r *http.Request) (watchFilter, error) {
	f := watchFilter{
		object:  r.URL.Query().Get("object"),
		perm:    r.URL.Query().Get("perm"),
		verdict: r.URL.Query().Get("verdict"),
		server:  r.URL.Query().Get("server"),
	}
	switch f.verdict {
	case "", "grant", "deny":
	default:
		return f, fmt.Errorf("bad verdict %q (want grant or deny)", f.verdict)
	}
	return f, nil
}

func (f watchFilter) match(e AuditEntry) bool {
	if f.object != "" && e.Object != f.object {
		return false
	}
	if f.perm != "" && e.Perm != f.perm {
		return false
	}
	if f.server != "" && e.Server != f.server {
		return false
	}
	switch f.verdict {
	case "grant":
		return e.Granted
	case "deny":
		return !e.Granted
	}
	return true
}

// handleWatch streams the coalition's decisions as Server-Sent Events:
// one "decision" event per authorisation outcome, JSON AuditEntry
// data, filterable by ?object= ?perm= ?server= ?verdict=grant|deny.
// The stream ends when the client disconnects or the server drains.
func (h *DebugServer) handleWatch(w http.ResponseWriter, r *http.Request) {
	filter, err := watchFilterFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}

	// Track the handler so Drain waits for it, and register the
	// subscription before the first byte so no decision slips between.
	h.wg.Add(1)
	defer h.wg.Done()
	select {
	case <-h.quit:
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	default:
	}
	sub, cancel := h.c.WatchDecisions(0)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fmt.Fprintf(w, ": stac decision watch v%d\n\n", SnapshotVersion)
	fl.Flush()

	beat := time.NewTicker(h.cfg.Heartbeat)
	defer beat.Stop()
	for {
		select {
		case e := <-sub:
			if !filter.match(e) {
				continue
			}
			b, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: decision\ndata: %s\n\n", b)
			if e.Shadow != nil && e.Shadow.Flip {
				// A shadow-policy disagreement gets its own event so
				// clients can watch flips without parsing every
				// decision.
				fmt.Fprintf(w, "event: flip\ndata: %s\n\n", b)
			}
			fl.Flush()
		case <-beat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-h.quit:
			return
		}
	}
}

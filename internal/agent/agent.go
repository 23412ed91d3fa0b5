// Package agent implements the mobile-object runtime of the emulation
// — the Naplet stand-in of Section 5.
//
// An Agent carries an owner credential, an SRAL program, a proof
// store and a variable store. Launched into a coalition, it roams:
// whenever its program's next shared-resource access names a server
// other than the one it is at, the agent departs (closing its subject,
// pausing temporal accumulation), migrates, authenticates at the new
// server (creating a subject, activating its credential roles,
// resetting per-server budgets) and continues. Parallel composition
// forks cloned execution branches — the "k cloned naplets" of the
// ApplAgentProg example — that share the agent's proof store and
// variables but roam independently.
//
// Lifecycle hooks mirror the Naplet object's application-specific
// functions: OnArrival, OnAccess, OnDeparture and OnCompletion.
package agent

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/proof"
	"stac/internal/server"
	"stac/internal/sral"
)

// Hooks are the application-specific lifecycle callbacks of an agent.
// All are optional; they run synchronously in the agent's execution
// branch.
type Hooks struct {
	// OnArrival runs after successful authentication at a server.
	OnArrival func(at model.ServerID)
	// OnAccess runs after each granted access with the result data.
	OnAccess func(a model.Access, data []byte)
	// OnDeparture runs before the agent leaves a server.
	OnDeparture func(from model.ServerID)
	// OnCompletion runs once when the whole program finishes
	// (successfully or not).
	OnCompletion func(err error)
}

// Agent is a mobile object executing an SRAL program in a coalition.
type Agent struct {
	ID         model.ObjectID
	Credential proof.Credential
	Program    sral.Node
	// Home is the server where execution starts; when empty, the
	// first access's server is used.
	Home model.ServerID
	// Proofs is the agent's execution-proof store; it migrates with
	// the agent and supplies the cross-server history.
	Proofs *proof.Store
	Hooks  Hooks
	// MaxSteps bounds the number of interpreter steps across all
	// branches (0 means unlimited). SRAL loops are governed by
	// ordinary program conditions, so a confined execution environment
	// — the paper's Naplet servers confine agents — needs a budget
	// against runaway programs.
	MaxSteps int64

	steps int64

	vars *VarStore

	abort     chan struct{}
	abortOnce sync.Once

	// accessMu serialises the agent's in-process accesses. In the
	// trace model an access is an atomic action and parallel branches
	// interleave them; two branches decided concurrently would both be
	// checked against the same history and could jointly overshoot a
	// counting ceiling that each one respects.
	accessMu sync.Mutex

	mu      sync.Mutex
	visited []model.ServerID
	err     error
	done    bool
}

// New creates an agent with a fresh proof store verified against the
// coalition signer.
func New(id model.ObjectID, cred proof.Credential, program sral.Node, signer *proof.Signer) *Agent {
	return &Agent{
		ID:         id,
		Credential: cred,
		Program:    program,
		Proofs:     proof.NewStore(signer),
		vars:       NewVarStore(),
		abort:      make(chan struct{}),
	}
}

// Abort recalls the agent: every execution branch stops at its next
// step, blocked channel receives and signal waits return
// ErrCancelled, and the run completes with ErrAborted. Abort is
// idempotent and safe to call from any goroutine.
func (ag *Agent) Abort() {
	ag.abortOnce.Do(func() { close(ag.abort) })
}

// Aborted reports whether the agent has been recalled.
func (ag *Agent) Aborted() bool {
	select {
	case <-ag.abort:
		return true
	default:
		return false
	}
}

// ErrAborted is the terminal error of a recalled agent.
var ErrAborted = errors.New("agent: aborted")

// ErrStepBudget is returned when an agent exceeds its MaxSteps budget.
var ErrStepBudget = errors.New("agent: step budget exhausted")

// chargeStep counts one interpreter step against the budget.
func (ag *Agent) chargeStep() error {
	if ag.MaxSteps <= 0 {
		return nil
	}
	if atomic.AddInt64(&ag.steps, 1) > ag.MaxSteps {
		return ErrStepBudget
	}
	return nil
}

// Steps returns the number of interpreter steps consumed so far.
func (ag *Agent) Steps() int64 { return atomic.LoadInt64(&ag.steps) }

// Vars returns the agent's shared variable store.
func (ag *Agent) Vars() *VarStore { return ag.vars }

// Visited returns the servers visited, in first-arrival order across
// all branches.
func (ag *Agent) Visited() []model.ServerID {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	return append([]model.ServerID(nil), ag.visited...)
}

func (ag *Agent) recordVisit(s model.ServerID) {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	for _, v := range ag.visited {
		if v == s {
			return
		}
	}
	ag.visited = append(ag.visited, s)
}

// Err returns the terminal error of a completed run, if any.
func (ag *Agent) Err() error {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	return ag.err
}

// Done reports whether the agent's run has completed.
func (ag *Agent) Done() bool {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	return ag.done
}

func (ag *Agent) finish(err error) {
	ag.mu.Lock()
	ag.done = true
	ag.err = err
	ag.mu.Unlock()
	if ag.Hooks.OnCompletion != nil {
		ag.Hooks.OnCompletion(err)
	}
}

// ErrNoProgram is returned when launching an agent without a program.
var ErrNoProgram = errors.New("agent: no program")

// Launch runs the agent to completion inside the coalition,
// interpreting its SRAL program and migrating between servers as the
// program's accesses require. It is synchronous; run it in a
// goroutine for concurrent agents. Each launch mints one trace from
// the coalition engine's tracer — the in-process counterpart of the
// remote runtime's itinerary trace.
func Launch(c *server.Coalition, ag *Agent) error {
	return LaunchTraced(c, c.Engine.Tracer().NewContext(), ag)
}

// LaunchTraced is Launch under a caller-minted trace context.
func LaunchTraced(c *server.Coalition, tc obs.TraceContext, ag *Agent) error {
	if ag.Program == nil {
		ag.finish(ErrNoProgram)
		return ErrNoProgram
	}
	if err := sral.Validate(ag.Program); err != nil {
		ag.finish(err)
		return err
	}
	sp, btc := c.Engine.Tracer().StartSpan(tc, "itinerary")
	sp.SetService("agent")
	sp.SetAttr("agent", string(ag.ID))
	ctx := &branch{coalition: c, agent: ag, cancel: ag.abort, tc: btc}
	// Establish the starting location.
	start := ag.Home
	if start == "" {
		if servers := sral.Servers(ag.Program); len(servers) > 0 {
			start = servers[0]
		}
	}
	var err error
	if start != "" {
		err = ctx.moveTo(start)
	}
	if err == nil {
		err = ctx.exec(ag.Program)
	}
	ctx.leave()
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.Finish()
	ag.finish(err)
	return err
}

// String summarises the agent for diagnostics.
func (ag *Agent) String() string {
	return fmt.Sprintf("agent %s (owner %s, %d proofs, visited %v)",
		ag.ID, ag.Credential.Owner, ag.Proofs.Len(), ag.Visited())
}

// VarStore is the agent's variable environment, shared by all
// execution branches (clones). It implements sral.Env.
type VarStore struct {
	mu   sync.RWMutex
	vars map[model.VarID]int64
}

// NewVarStore creates an empty variable store.
func NewVarStore() *VarStore {
	return &VarStore{vars: make(map[model.VarID]int64)}
}

// Lookup implements sral.Env.
func (v *VarStore) Lookup(name model.VarID) (int64, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	x, ok := v.vars[name]
	return x, ok
}

// Set binds a variable.
func (v *VarStore) Set(name model.VarID, val int64) {
	v.mu.Lock()
	v.vars[name] = val
	v.mu.Unlock()
}

// Get returns a variable's value (zero when unbound).
func (v *VarStore) Get(name model.VarID) int64 {
	x, _ := v.Lookup(name)
	return x
}

var _ sral.Env = (*VarStore)(nil)

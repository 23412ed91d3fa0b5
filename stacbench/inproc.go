package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/proof"
	"stac/internal/server"
	"stac/internal/sral"
	"stac/internal/temporal"
)

// wireRequest and wireReply mirror the access frame of the daemon's
// JSON-lines protocol (internal/server/tcp.go), so the in-process
// pipeline decodes and encodes the same shapes stacd does.
type wireRequest struct {
	Type     string        `json:"type"`
	Token    string        `json:"token,omitempty"`
	Op       string        `json:"op,omitempty"`
	Resource string        `json:"resource,omitempty"`
	Program  string        `json:"program,omitempty"`
	Proofs   []proof.Proof `json:"proofs,omitempty"`
	ID       string        `json:"id,omitempty"`
}

type wireReply struct {
	OK         bool         `json:"ok"`
	Error      string       `json:"error,omitempty"`
	Data       []byte       `json:"data,omitempty"`
	Proof      *proof.Proof `json:"proof,omitempty"`
	Trace      string       `json:"trace,omitempty"`
	DecisionID string       `json:"decision_id,omitempty"`
	HLC        string       `json:"hlc,omitempty"`
}

// verdict is the outcome of one access.
type verdict int8

const (
	grant verdict = iota
	deny
	failed
)

func (v verdict) String() string {
	return [...]string{"grant", "deny", "failed"}[v]
}

// classify maps an access error to its verdict: nil is a grant, an
// access denial is a deny, anything else (a transport error, a
// structured reject) is a failure.
func classify(err error) verdict {
	switch {
	case err == nil:
		return grant
	case errors.Is(err, server.ErrDenied):
		return deny
	default:
		return failed
	}
}

// startTour applies the workload's carried-history rule at the start
// of a tour.
func (s workloadSpec) startTour(carried []proof.Proof) []proof.Proof {
	if s.carryCap == 0 || len(carried) > s.carryCap {
		return nil
	}
	return carried
}

// engineSpanCapacity is the engine tracer's ring size in the
// in-process runs; one decision records at most five spans, and the
// traced run reads them back after every decision.
const engineSpanCapacity = 16

// coalition is an in-process coalition wired like stacd with its
// shipped defaults: tracing, coverage and cost profiling on.
type coalition struct {
	c      *server.Coalition
	tracer *obs.Tracer
	srv    map[model.ServerID]*server.Server
	creds  map[model.ObjectID]proof.Credential
}

func newCoalition(in inputs) (*coalition, error) {
	c := server.NewCoalition(temporal.NewRealClock(), []byte(in.key))
	c.Engine.SetObs(obs.NewRegistry())
	if err := core.LoadPolicy(c.Engine, strings.NewReader(in.policy.Text)); err != nil {
		return nil, fmt.Errorf("load policy: %w", err)
	}
	tracer := obs.NewTracer(engineSpanCapacity)
	c.Engine.SetTracer(tracer)
	c.Engine.EnableCoverage()
	c.Engine.EnableCostProfiling()
	co := &coalition{c: c, tracer: tracer, srv: map[model.ServerID]*server.Server{}, creds: map[model.ObjectID]proof.Credential{}}
	for _, id := range in.vocab.Servers {
		s, err := c.AddServer(id)
		if err != nil {
			return nil, err
		}
		for _, r := range in.vocab.Resources {
			s.HostResource(r, in.content[id][r])
		}
		co.srv[id] = s
	}
	// The same credentials stacd -issue-credentials prints.
	for _, u := range c.Engine.RBAC.Users() {
		roles := c.Engine.RBAC.AuthorizedRoles(u)
		names := make([]string, len(roles))
		for i, r := range roles {
			names[i] = string(r)
		}
		co.creds[model.ObjectID(u)] = c.Signer.IssueCredential(model.ObjectID(u), string(u)+"@coalition", names)
	}
	return co, nil
}

// passResult is what one in-process pass over the stream measured.
type passResult struct {
	verdicts [][]verdict // per agent, in stream order
	accesses int
	denies   int
	// work is the summed time of the pipeline: every access from
	// request decode to reply encode, plus Authenticate and Depart.
	work time.Duration

	// Untraced pass: heap bytes allocated inside the access pipeline,
	// and the pass's GC cycles and total allocation.
	pipelineAlloc, totalAlloc, gcCycles uint64

	// Traced pass: self time per layer, probe timings and counters.
	layers                           map[string]time.Duration
	auths, departs, grants           int
	issue, credVerify, permFor       time.Duration
	permProbes, activePerms          int
	verifies, reverifies             int
	entriesPerScan, evalsPerAppend   float64
	programAccesses, staticCheckRuns int
}

// pipelineToken stands in for the daemon's session token: 32 hex
// digits, so in-process frames have the daemon's frame size.
const pipelineToken = "00000000000000000000000000000000"

// run replays the whole stream (warm-up included) through the public
// functions of internal/server in the daemon's order: per hop
// Authenticate, then per access decode → sral.Parse → carried-proof
// verification → Server.Request → encode, then Depart. With traced set
// it wraps each call in a span, reads the engine's spans back and runs
// the probes. With concurrent set the two agents replay at once (their
// verdicts do not depend on each other), which only the reference
// check uses; sequential untraced passes also count the pipeline's
// allocations.
func (co *coalition) run(in inputs, traced, concurrent bool) (*passResult, error) {
	res := &passResult{verdicts: make([][]verdict, numAgents), layers: map[string]time.Duration{}}
	parts := make([]*passResult, numAgents)
	errs := make([]error, numAgents)
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(allocs)
	alloc0, gc0 := allocs[0].Value.Uint64(), allocs[1].Value.Uint64()
	if concurrent {
		var wg sync.WaitGroup
		for a := range in.streams {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				parts[a], errs[a] = co.replay(in, in.streams[a], false, false)
			}(a)
		}
		wg.Wait()
	} else {
		for a := range in.streams {
			if parts[a], errs[a] = co.replay(in, in.streams[a], traced, !traced); errs[a] != nil {
				break
			}
		}
	}
	for a, p := range parts {
		if errs[a] != nil {
			return nil, fmt.Errorf("agent %d: %w", a, errs[a])
		}
		res.verdicts[a] = p.verdicts[0]
		res.merge(p)
	}
	metrics.Read(allocs)
	res.totalAlloc = allocs[0].Value.Uint64() - alloc0
	res.gcCycles = allocs[1].Value.Uint64() - gc0
	amp := co.c.Engine.CostReport().Amplification
	res.entriesPerScan, res.evalsPerAppend = amp.EntriesPerScan, amp.EvalsPerAppend
	return res, nil
}

// merge adds an agent's counters and timings into the pass total.
func (r *passResult) merge(p *passResult) {
	r.accesses += p.accesses
	r.denies += p.denies
	r.work += p.work
	r.pipelineAlloc += p.pipelineAlloc
	for k, v := range p.layers {
		r.layers[k] += v
	}
	r.auths += p.auths
	r.departs += p.departs
	r.grants += p.grants
	r.issue += p.issue
	r.credVerify += p.credVerify
	r.permFor += p.permFor
	r.permProbes += p.permProbes
	r.activePerms += p.activePerms
	r.verifies += p.verifies
	r.reverifies += p.reverifies
	r.programAccesses += p.programAccesses
	r.staticCheckRuns += p.staticCheckRuns
}

// replay runs one agent's stream; see run.
func (co *coalition) replay(in inputs, st stream, traced, countAllocs bool) (*passResult, error) {
	res := &passResult{verdicts: make([][]verdict, 1), layers: map[string]time.Duration{}}
	var carried []proof.Proof
	seq := 0
	// Proofs verified so far, per object; agents never share an object.
	verified := map[model.ObjectID]map[string]struct{}{}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	store := co.tracer.Store()
	seenSpans := store.Total()

	for _, tr := range st.tours {
		carried = in.spec.startTour(carried)
		cred, ok := co.creds[tr.object]
		if !ok {
			return nil, fmt.Errorf("no credential for %s", tr.object)
		}
		for _, hop := range tr.hops {
			srv := co.srv[hop.Server]
			t0 := time.Now()
			sub, err := srv.Authenticate(cred)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("authenticate %s at %s: %w", tr.object, hop.Server, err)
			}
			res.work += t1.Sub(t0)
			if traced {
				res.layers["server.authenticate"] += t1.Sub(t0)
				res.auths++
				p0 := time.Now()
				if err := co.c.Signer.VerifyCredential(cred); err != nil {
					return nil, fmt.Errorf("credential probe: %w", err)
				}
				res.credVerify += time.Since(p0)
			}
			for _, r := range hop.Resources {
				seq++
				req := wireRequest{
					Type: "access", Token: pipelineToken, Op: string(model.OpRead), Resource: string(r),
					Program: st.program, Proofs: carried, ID: fmt.Sprintf("a%d-%d", st.agent, seq),
				}
				frame, err := json.Marshal(req)
				if err != nil {
					return nil, err
				}
				var before uint64
				if countAllocs {
					metrics.Read(allocs)
					before = allocs[0].Value.Uint64()
				}

				// --- the daemon's access pipeline ---
				p0 := time.Now()
				var dreq wireRequest
				err = json.Unmarshal(frame, &dreq)
				p1 := time.Now()
				if err != nil {
					return nil, fmt.Errorf("decode: %w", err)
				}
				var prog sral.Node
				if dreq.Program != "" {
					if prog, err = sral.Parse(dreq.Program); err != nil {
						return nil, fmt.Errorf("parse program: %w", err)
					}
				}
				p2 := time.Now()
				carriedStore := proof.NewStore(co.c.Signer)
				dedup := make(map[string]struct{}, len(dreq.Proofs))
				for _, p := range dreq.Proofs {
					if _, dup := dedup[p.Sig]; dup {
						continue
					}
					dedup[p.Sig] = struct{}{}
					if err := carriedStore.Add(p); err != nil {
						return nil, fmt.Errorf("carried proof: %w", err)
					}
				}
				p3 := time.Now()
				tc := co.tracer.NewContext()
				out, reqErr := srv.Request(sub, model.Operation(dreq.Op), model.ResourceID(dreq.Resource),
					server.RequestContext{Program: prog, Store: carriedStore, Trace: tc})
				p4 := time.Now()
				reply := wireReply{OK: reqErr == nil, Trace: tc.String(), DecisionID: out.Decision.ID, HLC: out.Decision.HLC.String()}
				if reqErr != nil {
					reply.Error = reqErr.Error()
				} else {
					reply.Data, reply.Proof = out.Data, &out.Proof
				}
				if _, err := json.Marshal(reply); err != nil {
					return nil, err
				}
				p5 := time.Now()
				// --- end of pipeline ---

				if countAllocs {
					metrics.Read(allocs)
					res.pipelineAlloc += allocs[0].Value.Uint64() - before
				}
				res.work += p5.Sub(p0)
				res.accesses++
				v := classify(reqErr)
				res.verdicts[0] = append(res.verdicts[0], v)
				switch v {
				case grant:
					carried = append(carried, out.Proof)
				case deny:
					res.denies++
				}
				if !traced {
					continue
				}

				total := store.Total()
				spans := store.Spans()
				fresh := total - seenSpans
				seenSpans = total
				if fresh > len(spans) {
					return nil, fmt.Errorf("engine span ring overflowed: %d new spans, capacity %d", fresh, engineSpanCapacity)
				}
				root := &span{layer: "access", start: p0, end: p5}
				root.add(&span{layer: "server.wire_decode", start: p0, end: p1})
				if prog != nil {
					root.add(&span{layer: "sral.parse", start: p1, end: p2})
					res.programAccesses++
				}
				root.add(&span{layer: "proof.carried_verify", start: p2, end: p3})
				reqSpan := &span{layer: "server.request", start: p3, end: p4}
				for _, c := range engineTree(spans[len(spans)-fresh:]) {
					reqSpan.add(c)
				}
				root.add(reqSpan)
				root.add(&span{layer: "server.wire_encode", start: p4, end: p5})
				for _, c := range root.children {
					c.walk(func(s *span) {
						res.layers[s.layer] += s.selfTime()
						if s.layer == "srac.static_check" {
							res.staticCheckRuns++
						}
					})
				}

				// Carried proofs this coalition had already verified
				// for the object: the work a verified-once history
				// would not repeat.
				seen := verified[sub.Object]
				if seen == nil {
					seen = map[string]struct{}{}
					verified[sub.Object] = seen
				}
				for sig := range dedup {
					res.verifies++
					if _, again := seen[sig]; again {
						res.reverifies++
					}
					seen[sig] = struct{}{}
				}

				// Probes: read-only calls with the same inputs,
				// outside the pipeline spans.
				access := model.Access{Object: sub.Object, Op: model.OpRead, Resource: r, Server: hop.Server}
				q0 := time.Now()
				sub.Session.PermissionFor(access)
				res.permFor += time.Since(q0)
				res.permProbes++
				res.activePerms += len(sub.Session.Permissions())
				if v == grant {
					q0 = time.Now()
					co.c.Signer.Issue(access, out.Proof.Time)
					res.issue += time.Since(q0)
					res.grants++
				}
			}
			d0 := time.Now()
			srv.Depart(sub)
			d1 := time.Now()
			res.work += d1.Sub(d0)
			if traced {
				res.layers["server.depart"] += d1.Sub(d0)
				res.departs++
			}
		}
	}
	return res, nil
}

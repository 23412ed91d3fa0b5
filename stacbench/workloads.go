package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"stac/internal/model"
	"stac/internal/sral"
	"stac/internal/workload"
)

// The coalition every workload runs against: three servers, each
// hosting the same eight resources, visited by two roaming agents.
const (
	numAgents    = 2
	numServers   = 3
	numResources = 8
	// unreachable is a count ceiling no run comes near, so counting
	// clauses are evaluated on every access but never deny.
	unreachable = 1000000
)

// workloadSpec is one traffic shape. Every field is fixed per
// workload; only the seed varies the generated stream.
type workloadSpec struct {
	name string
	// hops × perHop reads make one tour (an itinerary).
	hops, perHop int
	// carryCap: the carried proof history survives from one tour to
	// the next until it holds more than carryCap proofs, then the
	// object starts fresh. 0 starts every tour fresh.
	carryCap int
	// identities > 0 draws each tour's object from a pool of that
	// many identities (agent a takes a, a+2, a+4, ...); 0 gives each
	// agent one fixed object.
	identities int
	// programSize > 0 makes every access declare the agent's SRAL
	// program, generated by workload.Program at about this size.
	programSize int
	policy      workload.PolicySpec
	// cycle is the number of tours after which a carried history
	// starts fresh again (1 when every tour starts fresh). Warm-up and
	// every round of the measured phase are whole cycles, so each
	// round holds the same mix of history lengths.
	cycle int
	// warmupTours per agent run before the measured phase.
	warmupTours int
	// toursPerSecond sizes the measured phase: each agent runs
	// round(seconds × toursPerSecond) tours. It is a nominal rate,
	// fixed in code so that equal arguments give equal work on every
	// commit; a faster program simply finishes the same work sooner.
	toursPerSecond float64
}

func (s workloadSpec) accessesPerTour() int { return s.hops * s.perHop }

var workloads = []workloadSpec{
	{
		name: "tour-history", hops: 6, perHop: 8, carryCap: 128,
		policy: workload.PolicySpec{
			Workers: numAgents, Servers: numServers, Resources: numResources,
			Permissions: 8, Flavor: workload.FlavorCount, CountMax: unreachable,
		},
		cycle: 3, warmupTours: 9, toursPerSecond: 11,
	},
	{
		name: "wide-policy", hops: 3, perHop: 4, programSize: 64,
		policy: workload.PolicySpec{
			Workers: numAgents, Servers: numServers, Resources: numResources,
			Permissions: 256, Flavor: workload.FlavorMixed, CountMax: unreachable, DurationS: 3600,
		},
		cycle: 1, warmupTours: 60, toursPerSecond: 65,
	},
	{
		name: "roam-churn", hops: 4, perHop: 2, identities: 512,
		policy: workload.PolicySpec{
			Workers: 512, Servers: numServers, Resources: numResources,
			Permissions: 8, Flavor: workload.FlavorCount, CountMax: 1,
		},
		cycle: 1, warmupTours: 200, toursPerSecond: 220,
	},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// tour is one itinerary of one object.
type tour struct {
	object model.ObjectID
	hops   []workload.Hop
}

// stream is everything one agent sends in a run, warm-up included.
type stream struct {
	agent int
	// program is the SRAL text declared with every access ("" when
	// the workload declares none).
	program string
	tours   []tour
}

func (s stream) accesses() int {
	n := 0
	for _, t := range s.tours {
		for _, h := range t.hops {
			n += len(h.Resources)
		}
	}
	return n
}

// inputs is the whole generated input of one run.
type inputs struct {
	spec      workloadSpec
	seed      int64
	key       string
	policy    workload.GeneratedPolicy
	vocab     workload.Vocabulary
	streams   []stream
	content   map[model.ServerID]map[model.ResourceID][]byte
	resources []string // stacd -resource arguments, server:name=content
}

// mix decorrelates PRNG streams derived from one seed (splitmix64
// finalizer).
func mix(seed int64, idx ...int64) int64 {
	z := uint64(seed)
	for _, i := range idx {
		z += uint64(i+1) * 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int64(z)
}

// generate builds the inputs of one run from the workload and seed:
// measured tours per agent after spec.warmupTours warm-up tours.
func generate(spec workloadSpec, seed int64, measured int) inputs {
	in := inputs{
		spec:    spec,
		seed:    seed,
		key:     fmt.Sprintf("stacbench-key-%d", seed),
		policy:  workload.GeneratePolicy(spec.policy),
		vocab:   workload.DefaultVocabulary(numServers, numResources),
		content: map[model.ServerID]map[model.ResourceID][]byte{},
	}
	for _, s := range in.vocab.Servers {
		in.content[s] = map[model.ResourceID][]byte{}
		for _, r := range in.vocab.Resources {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%s", seed, s, r)))
			c := fmt.Sprintf("%s-%s-%s", s, r, hex.EncodeToString(sum[:12]))
			in.content[s][r] = []byte(c)
			in.resources = append(in.resources, fmt.Sprintf("%s:%s=%s", s, r, c))
		}
	}
	total := spec.warmupTours + measured
	for a := 0; a < numAgents; a++ {
		st := stream{agent: a}
		if spec.programSize > 0 {
			r := rand.New(rand.NewSource(mix(seed, int64(a), -1)))
			prog := workload.Program(r, in.vocab, workload.ProgramOptions{
				Size: spec.programSize, LoopFraction: 0.1, ParFraction: 0.2,
			})
			st.program = sral.String(prog)
		}
		for t := 0; t < total; t++ {
			obj := model.ObjectID(fmt.Sprintf("w%d", a))
			if spec.identities > 0 {
				obj = model.ObjectID(fmt.Sprintf("w%d", (t*numAgents+a)%spec.identities))
			}
			plan := workload.WorkerPlan(mix(seed, int64(t)), a, in.vocab, spec.hops, spec.perHop)
			st.tours = append(st.tours, tour{object: obj, hops: plan.Hops})
		}
		in.streams = append(in.streams, st)
	}
	return in
}

// render writes the generated request stream canonically: the policy,
// then per agent the declared program and one line per hop. It is
// what the golden-digest test fingerprints.
func (in inputs) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d key %s\n%s", in.spec.name, in.seed, in.key, in.policy.Text)
	for _, r := range in.resources {
		fmt.Fprintf(&b, "resource %s\n", r)
	}
	for _, st := range in.streams {
		fmt.Fprintf(&b, "agent %d program %q\n", st.agent, st.program)
		for i, t := range st.tours {
			fmt.Fprintf(&b, "tour %d %s\n", i, t.object)
			for _, h := range t.hops {
				fmt.Fprintf(&b, "  @%s:", h.Server)
				for j, r := range h.Resources {
					if j > 0 {
						b.WriteByte(',')
					}
					b.WriteString(string(r))
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// digest is the SHA-256 of render.
func (in inputs) digest() string {
	sum := sha256.Sum256([]byte(in.render()))
	return hex.EncodeToString(sum[:])
}

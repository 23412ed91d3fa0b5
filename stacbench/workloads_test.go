package main

import (
	"testing"

	"stac/internal/model"
)

// goldenDigests pins the generated request stream of every workload
// for seed 1 with three measured tours per agent. A change here
// changes what the benchmark measures, so it must come with a fresh
// baseline.
var goldenDigests = map[string]string{
	"tour-history": "f442db64cd3053fad562f1a5d56d98461bf63bdaae47fc3867d17352d44bf770",
	"wide-policy":  "8c98d8ff1f57bce5bf4298ea9f3f71252a6b0f196b210b77827aee6ec0e5714f",
	"roam-churn":   "0af2d4fc3a0fc15b2d8458031d87c56bae4ee7ccdb7912dc64bf092757af534e",
}

func TestStreamGoldenDigest(t *testing.T) {
	for _, spec := range workloads {
		got := generate(spec, 1, 3).digest()
		if want := goldenDigests[spec.name]; got != want {
			t.Errorf("%s: stream digest %s, golden %s", spec.name, got, want)
		}
	}
}

func TestStreamDependsOnlyOnSeed(t *testing.T) {
	for _, spec := range workloads {
		a, b := generate(spec, 42, 6), generate(spec, 42, 6)
		if a.render() != b.render() {
			t.Errorf("%s: two generations from one seed differ", spec.name)
		}
		if a.digest() == generate(spec, 43, 6).digest() {
			t.Errorf("%s: seeds 42 and 43 generate the same stream", spec.name)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	for _, spec := range workloads {
		in := generate(spec, 7, 2*spec.cycle)
		if (spec.programSize > 0) != (in.streams[0].program != "") {
			t.Errorf("%s: program declared = %v, want %v", spec.name, in.streams[0].program != "", spec.programSize > 0)
		}
		if spec.warmupTours%spec.cycle != 0 {
			t.Errorf("%s: warm-up of %d tours is not whole cycles of %d", spec.name, spec.warmupTours, spec.cycle)
		}
		objects := map[model.ObjectID]int{}
		for a, st := range in.streams {
			if got, want := st.accesses(), len(st.tours)*spec.accessesPerTour(); got != want {
				t.Errorf("%s: agent %d has %d accesses, want %d", spec.name, a, got, want)
			}
			for _, tr := range st.tours {
				if owner, ok := objects[tr.object]; ok && owner != a {
					t.Errorf("%s: object %s used by agents %d and %d", spec.name, tr.object, owner, a)
				}
				objects[tr.object] = a
			}
		}
	}
}

// TestCarriedHistoryCycle checks the tour-history rule: history carries
// across tours until it exceeds the cap, so the starting history
// lengths repeat with the workload's cycle.
func TestCarriedHistoryCycle(t *testing.T) {
	spec, _ := lookupWorkload("tour-history")
	var starts []int
	carried := 0
	for i := 0; i < 2*spec.cycle; i++ {
		if spec.carryCap == 0 || carried > spec.carryCap {
			carried = 0
		}
		starts = append(starts, carried)
		carried += spec.accessesPerTour()
	}
	for i := spec.cycle; i < len(starts); i++ {
		if starts[i] != starts[i-spec.cycle] {
			t.Fatalf("starting history lengths %v do not repeat every %d tours", starts, spec.cycle)
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestMetricsMatchBenchmarkFile keeps the JSON line in step with
// BENCHMARK.json: --trace 0 prints exactly its end_to_end metrics and
// --trace 1 exactly its per_layer metrics, with the same units.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var file struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}

	spec, _ := lookupWorkload("roam-churn")
	in := generate(spec, 2, 1)
	ref, traced := mustPass(t, in, false), mustPass(t, in, true)
	lr := observedLike(ref)
	for k := 0; k < numRounds; k++ {
		acc := make([]float64, minRoundAccesses)
		for i := range acc {
			acc[i] = float64(i + 1)
		}
		lr.rounds = append(lr.rounds, round{wall: 1e9, samples: samples{access: acc, arrive: acc, dial: acc, tours: acc}})
	}
	e2e, _, err := endToEnd(in, lr, []float64{0.01}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	layers, _ := perLayer(in, lr, ref, traced, 1)
	for _, c := range []struct {
		what  string
		got   map[string]metric
		decls []decl
	}{{"end_to_end", e2e, file.EndToEnd}, {"per_layer", layers, file.PerLayer}} {
		var names []string
		for _, d := range c.decls {
			names = append(names, d.Name)
			m, ok := c.got[d.Name]
			if !ok {
				t.Errorf("%s metric %s is not printed", c.what, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", c.what, d.Name, m.Unit, d.Unit)
			}
		}
		if len(c.got) != len(c.decls) {
			var got []string
			for k := range c.got {
				got = append(got, k)
			}
			sort.Strings(got)
			sort.Strings(names)
			t.Errorf("%s: printed %v, declared %v", c.what, got, names)
		}
	}
}

func mustPass(t *testing.T, in inputs, traced bool) *passResult {
	t.Helper()
	co, err := newCoalition(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.run(in, traced, false)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

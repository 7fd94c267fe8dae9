package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the program must agree with.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmokeRun runs every workload, the traced run included, at the smoke
// scale with fixed op counts, and checks that the report carries exactly the
// workload and metric names BENCHMARK.json declares. Nothing here depends
// on how long anything took.
func TestSmokeRun(t *testing.T) {
	outDir = t.TempDir()
	out, ok := runAll(1, 0, true, spec.smoke, smokeLimits)
	if !ok {
		t.Fatal("a workload failed its checks (see CHECK FAILED lines)")
	}
	if out.Claim != nil {
		t.Error("the benchmark claims no gain")
	}
	c := readContract(t)
	if len(out.Workloads) != len(c.Workloads) {
		t.Fatalf("%d workloads reported, BENCHMARK.json names %d", len(out.Workloads), len(c.Workloads))
	}
	for i, w := range out.Workloads {
		if w.Name != c.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, w.Name, c.Workloads[i].Name)
		}
		if w.Attempted == 0 || w.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed", w.Name, w.Attempted, w.Failed)
		}
		var got, want []string
		for n := range w.Metrics {
			if !strings.HasPrefix(n, "op_p9") && n != "op_max_ms" { // the tail's name carries its percentile
				got = append(got, n)
			}
		}
		for _, m := range c.EndToEnd {
			want = append(want, m.Name)
			if w.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, w.Metrics[m.Name].Unit, m.Unit)
			}
		}
		want = append(want, "enrich_execs_per_op", "failed_ratio")
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics %v, want %v", w.Name, got, want)
		}
		want = want[:0]
		for _, m := range c.PerLayer {
			want = append(want, m.Name)
			if w.Layers[m.Name].Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, w.Layers[m.Name].Unit, m.Unit)
			}
		}
		sort.Strings(want)
		if got := layerNames(w.Layers); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics %v, want %v", w.Name, got, want)
		}
		if _, err := os.Stat(outDir + "/trace-" + w.Name + ".jsonl"); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
}

// TestSeedDeterminism: the same seed gives the same op list and the same
// executions per op, another seed another list.
func TestSeedDeterminism(t *testing.T) {
	run := func(s spec, seed int64) ([]op, float64) {
		in, err := prepare(s.smoke(), seed)
		if err != nil {
			t.Fatal(err)
		}
		defer in.close()
		return in.ops, in.pass(smokeLimits, false).stats().execsPerOp
	}
	for _, s := range specs {
		ops1, execs1 := run(s, 7)
		ops2, execs2 := run(s, 7)
		ops3, _ := run(s, 8)
		if !reflect.DeepEqual(ops1, ops2) {
			t.Errorf("%s: seed 7 gave two different op lists", s.name)
		}
		if execs1 != execs2 {
			t.Errorf("%s: seed 7 gave %v then %v executions per op", s.name, execs1, execs2)
		}
		if reflect.DeepEqual(ops1, ops3) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", s.name)
		}
	}
}

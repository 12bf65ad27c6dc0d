package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"polm2/internal/apps/cassandra"
	"polm2/internal/apps/lucene"
)

// tinySimConfig shrinks the simulations to seconds of host time while
// keeping every output check meaningful (the profiles still instrument
// sites and POLM2 still beats G1's warm p99).
func tinySimConfig() simConfig {
	return simConfig{
		ProfileLen: 4 * time.Minute,
		RunLen:     6 * time.Minute,
		SetupReps:  2,
		InputLen:   time.Minute,
	}
}

func tinyFleetConfig() fleetConfig {
	return fleetConfig{
		Keys:           []fleetKey{{cassandra.New(), cassandra.WorkloadWI}, {lucene.New(), lucene.Workload}},
		ProfileLen:     time.Minute,
		Instances:      12,
		SharedFraction: 0.5,
		Cadence:        100 * time.Millisecond,
		SyncInterval:   50 * time.Millisecond,
		TracedSeconds:  0.3,
		SetupReps:      2,
		MaxLateness:    200 * time.Millisecond,
	}
}

// smoke runs one workload twice in the same output directory, untraced
// then traced, and checks both results: correct, with every metric of
// its mode present; the second run also compares its simulated outputs
// with those the first pinned.
func smoke(t *testing.T, name string, drive func(*run) error) {
	t.Helper()
	out := t.TempDir()
	for _, traced := range []bool{false, true} {
		res, err := execute(name, drive, 5, 0.2, traced, out, nil, io.Discard)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		want := endToEnd
		if traced {
			want = perLayer()
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.name, got, m.unit)
			}
		}
		if !traced {
			for _, m := range endToEnd {
				if res.Metrics[m.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, res.Metrics[m.name].Value)
				}
			}
		}
	}
	if _, err := os.Stat(out + "/spans-" + name + "-5.jsonl"); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
}

func TestSmokeLuceneProfile(t *testing.T) {
	smoke(t, "lucene-profile", func(r *run) error { return runLuceneProfile(r, tinySimConfig()) })
}

func TestSmokeCassandraProduction(t *testing.T) {
	smoke(t, "cassandra-production", func(r *run) error { return runCassandraProduction(r, tinySimConfig()) })
}

func TestSmokeFleet(t *testing.T) {
	smoke(t, "fleet", func(r *run) error { return runFleet(r, tinyFleetConfig()) })
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program reports in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	same := func(what string, got []struct{ Name, Unit string }, want []nameUnit) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}

// TestGoldenSims checks that the embedded golden records parse and cover
// every workload at the build seed and the held-out seed.
func TestGoldenSims(t *testing.T) {
	g := goldenSims()
	for _, wl := range workloadNames() {
		for _, seed := range []int64{1, 9001} {
			rec, ok := g[fmt.Sprintf("%s/%d", wl, seed)]
			if !ok || len(rec.Values) == 0 || len(rec.Digests) == 0 {
				t.Errorf("no golden record for %s seed %d", wl, seed)
			}
		}
	}
}

// TestPinSimsUntracedSubset checks the pin of a seed without a golden
// record: an untraced run pins the outputs it computes, a traced run must
// agree on those and adds the rest, and a later run that disagrees on any
// output fails its check.
func TestPinSimsUntracedSubset(t *testing.T) {
	out := t.TempDir()
	pin := func(traced bool, values map[string]float64) []string {
		r := &run{workload: "w", seed: 7, traced: traced, outDir: out, sims: values, digests: map[string]string{"p": "x"}}
		if err := r.pinSims(nil); err != nil {
			t.Fatal(err)
		}
		return r.violations
	}
	if v := pin(false, map[string]float64{"a": 1}); len(v) != 0 {
		t.Fatalf("first untraced run: %v", v)
	}
	if v := pin(true, map[string]float64{"a": 1, "b": 2}); len(v) != 0 {
		t.Fatalf("traced run adding an output: %v", v)
	}
	if v := pin(false, map[string]float64{"a": 1}); len(v) != 0 {
		t.Fatalf("untraced run after the traced one: %v", v)
	}
	if v := pin(true, map[string]float64{"a": 1, "b": 3}); len(v) != 1 {
		t.Fatalf("changed traced output: violations %v, want one", v)
	}

	golden := map[string]simRecord{"w/7": {map[string]float64{"a": 1, "b": 2}, map[string]string{"p": "x"}}}
	for _, c := range []struct {
		traced bool
		values map[string]float64
		ok     bool
	}{
		{false, map[string]float64{"a": 1}, true},
		{true, map[string]float64{"a": 1}, false}, // a traced run computes every output
		{true, map[string]float64{"a": 1, "b": 2}, true},
		{false, map[string]float64{"a": 2}, false},
	} {
		r := &run{workload: "w", seed: 7, traced: c.traced, outDir: out, sims: c.values, digests: map[string]string{"p": "x"}}
		if err := r.pinSims(golden); err != nil {
			t.Fatal(err)
		}
		if got := len(r.violations) == 0; got != c.ok {
			t.Errorf("golden, traced=%v values=%v: ok=%v, want %v", c.traced, c.values, got, c.ok)
		}
	}
}

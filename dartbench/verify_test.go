package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"dart/internal/prefetch"
	"dart/internal/sim"
	"dart/internal/trace"
)

func strideFactory(t *testing.T) func() sim.Prefetcher {
	reg := prefetch.NewRegistry()
	return func() sim.Prefetcher {
		pf, err := reg.New("stride", degree)
		if err != nil {
			t.Fatal(err)
		}
		return pf
	}
}

// servedTwice is a session whose trace was replayed once in full and then
// partly, with the results the offline simulator gives for those lengths.
func servedTwice(t *testing.T) (map[string][]trace.Record, map[string][]serveResult, uint64) {
	app := trace.Apps()[0]
	recs := trace.Generate(app, 4096)
	pf := strideFactory(t)
	cfg := sim.DefaultConfig()
	full := sim.Run(recs, pf(), cfg)
	part := sim.Run(recs[:1000], pf(), cfg)
	traces := map[string][]trace.Record{"s0": recs}
	served := map[string][]serveResult{"s0": {{sent: 4096, res: full}, {sent: 1000, res: part}}}
	return traces, served, 5096
}

func TestVerifyAcceptsBitIdenticalSessions(t *testing.T) {
	traces, served, accepted := servedTwice(t)
	v := verify(traces, served, accepted, 0, strideFactory(t))
	if len(v.problems) != 0 || v.failed != 0 || !v.checks[0].identical {
		t.Fatalf("clean sessions flagged: %+v", v)
	}
}

func TestVerifyCatchesPerturbedResult(t *testing.T) {
	for _, perturb := range []struct {
		name string
		fn   func(*sim.Result)
	}{
		{"one more demand hit", func(r *sim.Result) { r.DemandHits++ }},
		{"IPC off in the last bit", func(r *sim.Result) { r.IPC = math.Nextafter(r.IPC, 2*r.IPC) }},
		{"one more prefetch issued", func(r *sim.Result) { r.PrefetchIssued++ }},
	} {
		traces, served, accepted := servedTwice(t)
		perturb.fn(&served["s0"][1].res)
		if served["s0"][1].res == sim.Run(traces["s0"][:1000], strideFactory(t)(), sim.DefaultConfig()) {
			continue // the perturbation rounded away; nothing to catch
		}
		v := verify(traces, served, accepted, 0, strideFactory(t))
		if v.failed != 5096 || len(v.problems) != 1 || v.checks[0].identical {
			t.Errorf("%s: verdict %+v, want all 5096 accesses failed", perturb.name, v)
		}
	}
}

func TestVerifyCatchesIncompleteAccounting(t *testing.T) {
	traces, served, accepted := servedTwice(t)
	v := verify(traces, served, accepted+1, 0, strideFactory(t))
	if len(v.problems) != 1 || !strings.Contains(v.problems[0], "admitted") {
		t.Errorf("extra admitted access not caught: %+v", v.problems)
	}
	traces, served, accepted = servedTwice(t)
	served["s0"][1].sent = 999 // the server accounted one more access than the client sent
	v = verify(traces, served, accepted-1, 0, strideFactory(t))
	if v.failed == 0 || len(v.problems) == 0 {
		t.Errorf("accounting mismatch not caught: %+v", v)
	}
	traces, served, accepted = servedTwice(t)
	v = verify(traces, served, accepted, 64, strideFactory(t))
	if v.failed != 64 || len(v.problems) != 1 {
		t.Errorf("failed frame not counted: %+v", v)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// runJSON runs the benchmark in-process and decodes its last line.
func runJSON(t *testing.T, args ...string) (result, string) {
	var out bytes.Buffer
	code := run(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, correct %v\n%s", code, res.Correct, out.String())
	}
	return res, out.String()
}

func checkNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: %s missing", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: %s in %s, BENCHMARK.json says %s", what, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		sort.Strings(names)
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d: got %v, want %v", what, len(got), len(want), sortedNames(got), names)
	}
}

func TestRunsReportExactlyTheListedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark end to end")
	}
	spec := readSpec(t)
	res, _ := runJSON(t, "--workload", "stride-routed", "--seconds", "2", "--seed", "3")
	checkNames(t, "untraced", res.Metrics, spec.EndToEnd)
	res, out := runJSON(t, "--workload", "stride-routed", "--seconds", "2", "--seed", "3", "--trace", "1")
	checkNames(t, "traced", res.Metrics, spec.PerLayer)
	for _, want := range []string{"cost ledger", "tracing overhead", "blocking path", "teacher/DART"} {
		if !strings.Contains(out, want) {
			t.Errorf("traced output lacks %q", want)
		}
	}
}

// sortedNames lists a metric set's names in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

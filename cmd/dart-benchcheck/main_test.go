package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const sampleBaseline = `{
  "matmul": [
    {"n": 64,  "serial_ns": 100000, "par_ns": {"w1": 30000, "w2": 28000, "w4": 25000, "wGOMAXPROCS": 26000}},
    {"n": 512, "serial_ns": 70000000, "par_ns": {"w1": 12000000, "w2": 11500000, "w4": 11000000}}
  ],
  "tabular": {"ns_per_op": 1800000}
}`

const sampleBench = `goos: linux
goarch: amd64
BenchmarkMatMul/serial/n64-1       7    101000 ns/op    0 B/op
BenchmarkMatMul/par/n64/w1-1     40     29000 ns/op
BenchmarkMatMul/par/n64/w2-1     40     27000 ns/op
BenchmarkMatMul/par/n64/w4-1     40     24000 ns/op
BenchmarkMatMul/serial/n512-1     2  69000000 ns/op
BenchmarkMatMul/par/n512/w1-1    10  12100000 ns/op
BenchmarkMatMul/par/n512/w2-1    10  11400000 ns/op
BenchmarkMatMul/par/n512/w4-1    10  11200000 ns/op
BenchmarkHierarchyQueryBatch  100   1700000 ns/op
PASS
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("parsed %d benchmarks, want 9", len(got))
	}
	if got["BenchmarkMatMul/par/n512/w4"] != 11200000 {
		t.Fatalf("n512/w4 = %v", got["BenchmarkMatMul/par/n512/w4"])
	}
	if got["BenchmarkHierarchyQueryBatch"] != 1700000 {
		t.Fatalf("tabular = %v", got["BenchmarkHierarchyQueryBatch"])
	}
}

func TestParseBenchKeepsMinimumAcrossCounts(t *testing.T) {
	in := "BenchmarkMatMul/serial/n64-1 5 200000 ns/op\nBenchmarkMatMul/serial/n64-1 5 150000 ns/op\n"
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkMatMul/serial/n64"] != 150000 {
		t.Fatalf("min not kept: %v", got)
	}
}

func writeBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte(sampleBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGatePassesWithinTolerance(t *testing.T) {
	var out strings.Builder
	code := run(writeBaseline(t), "", "", strings.NewReader(sampleBench), &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "checks passed") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	// n512/w4 regresses 3x beyond the baseline.
	slow := strings.Replace(sampleBench,
		"BenchmarkMatMul/par/n512/w4-1    10  11200000 ns/op",
		"BenchmarkMatMul/par/n512/w4-1    10  33000000 ns/op", 1)
	var out strings.Builder
	code := run(writeBaseline(t), "", "", strings.NewReader(slow), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkMatMul/par/n512/w4") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestGateFailsOnLostSpeedup(t *testing.T) {
	// Absolute numbers fine, but par w4 no faster than serial at n=512:
	// model a host where the engine silently fell back to the slow path
	// while the baseline file was recorded on slower hardware.
	in := `BenchmarkMatMul/serial/n512-1 2 10000000 ns/op
BenchmarkMatMul/par/n512/w4-1 2 9000000 ns/op
`
	var out strings.Builder
	code := run(writeBaseline(t), "", "", strings.NewReader(in), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "speedup") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestGateSpeedupUsesLargestCommonSize(t *testing.T) {
	got, _ := parseBench(strings.NewReader(sampleBench))
	c, missing := gateNamed(t, "speedup(par w4 vs serial, n=%d)").eval([2]any{}, got)
	if missing != nil {
		t.Fatalf("no speedup check possible: missing %v", missing)
	}
	if !strings.Contains(c.name, "n=512") {
		t.Fatalf("picked %q, want n=512", c.name)
	}
	if !c.ok {
		t.Fatalf("speedup %v below limit %v", c.measured, c.limit)
	}
}

func TestGateWarnsOnMissingMeasurement(t *testing.T) {
	// Only the n=64 grid measured: n=512 baseline rows are warnings, not
	// failures (CI may shrink the grid), but the run still passes.
	small := `BenchmarkMatMul/serial/n64-1 7 101000 ns/op
BenchmarkMatMul/par/n64/w1-1 40 29000 ns/op
BenchmarkMatMul/par/n64/w2-1 40 27000 ns/op
BenchmarkMatMul/par/n64/w4-1 40 24000 ns/op
BenchmarkHierarchyQueryBatch-1 100 1700000 ns/op
`
	var out strings.Builder
	code := run(writeBaseline(t), "", "", strings.NewReader(small), &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "warn") {
		t.Fatalf("no warning for missing entries:\n%s", out.String())
	}
}

func TestGateFailsClosedWhenNothingMatches(t *testing.T) {
	// Renamed benchmarks parse fine but match no baseline entry; the gate
	// must error rather than pass with zero checks.
	renamed := `BenchmarkMatMul/pool/n512/w4-1 10 11200000 ns/op
BenchmarkSomethingElse-1 5 12345 ns/op
`
	var out strings.Builder
	if code := run(writeBaseline(t), "", "", strings.NewReader(renamed), &out); code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no measured benchmark matched") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestGateErrorsOnEmptyInput(t *testing.T) {
	var out strings.Builder
	if code := run(writeBaseline(t), "", "", strings.NewReader("no benchmarks here"), &out); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestGateErrorsOnMissingBaseline(t *testing.T) {
	var out strings.Builder
	if code := run(filepath.Join(t.TempDir(), "nope.json"), "", "", strings.NewReader(sampleBench), &out); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestRealBaselineParses guards the committed BENCH_par.json and
// BENCH_serve.json against drifting away from the table: every row must find
// its baseline fields, and every tolerance baseline and recorded ratio
// operand must be positive, so a renamed field or an orphan row fails here
// and not only in `make bench-ci`.
func TestRealBaselineParses(t *testing.T) {
	var out strings.Builder
	code := run("../../BENCH_par.json", "", "", strings.NewReader(sampleBench), &out)
	// sampleBench numbers are far below the real baseline, so this passes
	// unless the JSON fails to parse (exit 2).
	if code == 2 {
		t.Fatalf("BENCH_par.json no longer parses:\n%s", out.String())
	}
	var base [2]any
	var err error
	for d, path := range map[doc]string{parDoc: "../../BENCH_par.json", serveDoc: "../../BENCH_serve.json"} {
		if base[d], err = readDoc(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range gates {
		var refs []string
		switch {
		case g.field != "":
			refs = []string{g.section + "." + g.field}
		case g.recorded:
			refs = []string{g.num, g.den}
		}
		for _, ref := range refs {
			v, ok := value(base[g.doc], ref)
			if !ok {
				t.Errorf("row %s: committed baseline has no %s", rowName(g), ref)
			} else if (g.kind == tol || g.recorded) && v <= 0 {
				t.Errorf("row %s: committed baseline %s = %v, want > 0", rowName(g), ref, v)
			}
		}
	}
}

const sampleServeBaseline = `{
  "generated": "2026-07-30",
  "online": {
    "feedback_ingest_ns": 20, "swap_ns": 30000,
    "teacher_infer_ns": 550000, "student_infer_ns": 320000, "distill_cycle_ns": 3000000,
    "dart_infer_ns": 250000, "tabular_swap_ns": 5000,
    "teacher_storage_bytes": 44032, "student_storage_bytes": 13952,
    "dart_storage_bytes": 7982,
    "policy_decision_ns": 22, "policy_decision_allocs": 0
  },
  "binary": {
    "replay_throughput": 3900000, "replay_batch": 64,
    "codec_ns": 2100, "codec_allocs": 0,
    "wire_access_ns": 520, "wire_access_allocs": 0
  },
  "quant": {
    "dart_infer_quant_ns": 160000, "dart_infer_quant_allocs": 980,
    "dart_quant_storage_bytes": 1995,
    "quant_row_ns": 30, "quant_row_allocs": 0
  },
  "router": {
    "router_access_ns": 5900, "direct_access_ns": 2950,
    "replay_throughput": 300000
  },
  "report": {"Throughput": 640000}
}`

const sampleOnlineBench = sampleBench + `BenchmarkFeedbackIngest-1  50000000  22.1 ns/op
BenchmarkModelSwap-1  40000  31000 ns/op
BenchmarkTeacherInfer-1  434  553897 ns/op  44032 storage_bytes
BenchmarkStudentInfer-1  712  321442 ns/op  13952 storage_bytes
BenchmarkDistillCycle-1  84  3096250 ns/op
BenchmarkDartInfer-1  951  249812 ns/op  7982 storage_bytes
BenchmarkDartInferQuant-1  1500  161234 ns/op  1995 storage_bytes  84000 B/op  980 allocs/op
BenchmarkQuantRowAccum-1  40000000  29.8 ns/op  0 B/op  0 allocs/op
BenchmarkTabularSwap-1  200000  5100 ns/op
BenchmarkPolicyDecision-1  50000000  21.7 ns/op  0 B/op  0 allocs/op
BenchmarkWireCodec-1  550000  2156 ns/op  0 B/op  0 allocs/op
BenchmarkWireAccessBinary-1  2000000  529.2 ns/op  0 B/op  0 allocs/op
BenchmarkWireAccessJSON-1  150000  8101 ns/op  1969 B/op  45 allocs/op
BenchmarkRouterAccess-1  200000  6012 ns/op  120 B/op  3 allocs/op
BenchmarkDirectAccess-1  400000  2987 ns/op  80 B/op  2 allocs/op
`

func writeServeBaseline(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "serve.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOnlineGatePassesWithinTolerance(t *testing.T) {
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(sampleOnlineBench), &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkFeedbackIngest") ||
		!strings.Contains(out.String(), "BenchmarkModelSwap") {
		t.Fatalf("online benchmarks not checked:\n%s", out.String())
	}
}

func TestOnlineGateFailsOnRegression(t *testing.T) {
	slow := strings.Replace(sampleOnlineBench,
		"BenchmarkFeedbackIngest-1  50000000  22.1 ns/op",
		"BenchmarkFeedbackIngest-1  1000000  95.0 ns/op", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(slow), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkFeedbackIngest") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestOnlineGateFailsClosedOnMissingBenchmark(t *testing.T) {
	// Input has the matmul grid but neither online benchmark: the serve
	// gate must error rather than degrade to a warning.
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(sampleBench), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "missing") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestOnlineGateFailsClosedWithoutSection(t *testing.T) {
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, `{"report": {}}`), "",
		strings.NewReader(sampleOnlineBench), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "online") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestWriteOnlinePreservesOtherKeys(t *testing.T) {
	path := writeServeBaseline(t, sampleServeBaseline)
	var out strings.Builder
	code := run("", "", path, strings.NewReader(sampleOnlineBench), &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	updated, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(updated)
	for _, want := range []string{
		`"feedback_ingest_ns": 22.1`, `"swap_ns": 31000`, `"generated"`, `"Throughput": 640000`,
		`"policy_decision_ns": 21.7`, `"policy_decision_allocs": 0`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("updated file missing %q:\n%s", want, s)
		}
	}
	// The refreshed file must pass its own gate.
	code = run(writeBaseline(t), path, "", strings.NewReader(sampleOnlineBench), &out)
	if code != 0 {
		t.Fatalf("self-gate exit %d:\n%s", code, out.String())
	}
}

func TestParseBenchStorageMetric(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOnlineBench))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkStudentInfer@storage_bytes"] != 13952 {
		t.Fatalf("student storage = %v, want 13952", got["BenchmarkStudentInfer@storage_bytes"])
	}
	if got["BenchmarkTeacherInfer@storage_bytes"] != 44032 {
		t.Fatalf("teacher storage = %v, want 44032", got["BenchmarkTeacherInfer@storage_bytes"])
	}
}

func TestStudentGateFailsWhenNotFaster(t *testing.T) {
	// Student infer as slow as the teacher: absolute baselines may still
	// pass (tolerance), but the same-run speedup check must fail.
	slow := strings.Replace(sampleOnlineBench,
		"BenchmarkStudentInfer-1  712  321442 ns/op  13952 storage_bytes",
		"BenchmarkStudentInfer-1  712  560000 ns/op  13952 storage_bytes", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(slow), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL speedup(student vs teacher infer") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestDartGateFailsWhenNotFasterThanStudent(t *testing.T) {
	// Dart table inference as slow as the student: absolute baselines may
	// still pass (tolerance), but the same-run dart-beats-student check —
	// the paper's core claim — must fail.
	slow := strings.Replace(sampleOnlineBench,
		"BenchmarkDartInfer-1  951  249812 ns/op  7982 storage_bytes",
		"BenchmarkDartInfer-1  951  330000 ns/op  7982 storage_bytes", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(slow), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL speedup(dart vs student infer") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestStudentGateFailsWhenNotSmaller(t *testing.T) {
	bloated := strings.Replace(sampleOnlineBench,
		"BenchmarkStudentInfer-1  712  321442 ns/op  13952 storage_bytes",
		"BenchmarkStudentInfer-1  712  321442 ns/op  44032 storage_bytes", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(bloated), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL shrink(student vs teacher storage_bytes)") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestStudentGateFailsClosedOnMissingStudentBench(t *testing.T) {
	// The student benchmarks disappearing from the input must error, not
	// silently stop gating the tier.
	noStudent := strings.Replace(sampleOnlineBench,
		"BenchmarkStudentInfer-1  712  321442 ns/op  13952 storage_bytes\n", "", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(noStudent), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
}

func TestWriteOnlineRefusesPartialInput(t *testing.T) {
	path := writeServeBaseline(t, sampleServeBaseline)
	var out strings.Builder
	// Missing BenchmarkModelSwap: must refuse rather than zero the baseline.
	code := run("", "", path,
		strings.NewReader("BenchmarkFeedbackIngest-1 100 20 ns/op\n"), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
}

func TestPolicyGateFailsOnSingleAlloc(t *testing.T) {
	// ObserveLive runs on every shadow-compared batch: like the binary wire
	// hot path, one allocation against the zero baseline fails with no
	// tolerance, even with ns/op unchanged.
	leaky := strings.Replace(sampleOnlineBench,
		"BenchmarkPolicyDecision-1  50000000  21.7 ns/op  0 B/op  0 allocs/op",
		"BenchmarkPolicyDecision-1  50000000  21.7 ns/op  48 B/op  1 allocs/op", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(leaky), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkPolicyDecision@allocs") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestPolicyGateFailsClosedOnMissingBench(t *testing.T) {
	// BenchmarkPolicyDecision vanishing from bench-ci's input (or its
	// -benchmem column) must error, not silently stop gating the hot path.
	noPolicy := strings.Replace(sampleOnlineBench,
		"BenchmarkPolicyDecision-1  50000000  21.7 ns/op  0 B/op  0 allocs/op\n", "", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(noPolicy), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "missing") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestParseBenchAllocsMetric(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOnlineBench))
	if err != nil {
		t.Fatal(err)
	}
	if v := got["BenchmarkWireAccessBinary@allocs"]; v != 0 {
		t.Fatalf("binary allocs = %v, want 0", v)
	}
	if v := got["BenchmarkWireAccessJSON@allocs"]; v != 45 {
		t.Fatalf("json allocs = %v, want 45", v)
	}
	// Repeated names keep the minimum, same as ns/op.
	in := "BenchmarkWireCodec-1 100 2000 ns/op 32 B/op 2 allocs/op\n" +
		"BenchmarkWireCodec-1 100 2100 ns/op 0 B/op 0 allocs/op\n"
	got, err = parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if v := got["BenchmarkWireCodec@allocs"]; v != 0 {
		t.Fatalf("min allocs not kept: %v", v)
	}
}

func TestBinaryGatePassesAtBaseline(t *testing.T) {
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(sampleOnlineBench), &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	for _, want := range []string{
		"BenchmarkWireCodec", "BenchmarkWireAccessBinary@allocs",
		"speedup(binary vs json replay, recorded)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("wire gate %q not checked:\n%s", want, out.String())
		}
	}
}

func TestBinaryGateFailsOnNsRegression(t *testing.T) {
	// Codec 4x slower than the 2100 ns baseline: beyond 1.5x tolerance.
	slow := strings.Replace(sampleOnlineBench,
		"BenchmarkWireCodec-1  550000  2156 ns/op  0 B/op  0 allocs/op",
		"BenchmarkWireCodec-1  550000  9000 ns/op  0 B/op  0 allocs/op", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(slow), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkWireCodec") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestBinaryGateFailsOnSingleAlloc(t *testing.T) {
	// ns/op unchanged but the hot path picked up allocations: no tolerance
	// applies — one alloc against a zero baseline fails.
	leaky := strings.Replace(sampleOnlineBench,
		"BenchmarkWireAccessBinary-1  2000000  529.2 ns/op  0 B/op  0 allocs/op",
		"BenchmarkWireAccessBinary-1  2000000  529.2 ns/op  48 B/op  1 allocs/op", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(leaky), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkWireAccessBinary@allocs") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestBinaryGateFailsClosedOnMissingWireBench(t *testing.T) {
	// The wire benchmarks vanishing from the input (e.g. -benchmem dropped
	// from bench-ci) must error, not silently stop gating allocations.
	noWire := strings.Replace(sampleOnlineBench,
		"BenchmarkWireCodec-1  550000  2156 ns/op  0 B/op  0 allocs/op\n", "", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(noWire), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), `"binary" benchmarks missing`) {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestBinaryGateFailsClosedWithoutSection(t *testing.T) {
	// Online section present, binary section absent: fail closed.
	noBinary := strings.Replace(sampleServeBaseline, `"binary": {
    "replay_throughput": 3900000, "replay_batch": 64,
    "codec_ns": 2100, "codec_allocs": 0,
    "wire_access_ns": 520, "wire_access_allocs": 0
  },
  `, "", 1)
	if noBinary == sampleServeBaseline {
		t.Fatal("fixture replace failed")
	}
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, noBinary), "",
		strings.NewReader(sampleOnlineBench), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), `"binary"`) {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestWireSpeedupGateFailsBelowBar(t *testing.T) {
	// Recorded binary replay only 3x the JSON replay: below the 5x bar.
	slow := strings.Replace(sampleServeBaseline,
		`"replay_throughput": 3900000`, `"replay_throughput": 1920000`, 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, slow), "",
		strings.NewReader(sampleOnlineBench), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL speedup(binary vs json replay, recorded)") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestWireSpeedupFailsClosedWithoutRecordedThroughput(t *testing.T) {
	// A binary section written only by -write-binary (no replay run yet)
	// lacks replay_throughput: the speedup check must error, not pass.
	noReplay := strings.Replace(sampleServeBaseline,
		`"replay_throughput": 3900000, "replay_batch": 64,`, "", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, noReplay), "",
		strings.NewReader(sampleOnlineBench), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "binary.replay_throughput") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestWriteBinaryPreservesReplayAndOtherKeys(t *testing.T) {
	path := writeServeBaseline(t, sampleServeBaseline)
	var out strings.Builder
	code := run("", "", path, strings.NewReader(sampleOnlineBench), &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	updated, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(updated)
	for _, want := range []string{
		`"codec_ns": 2156`, `"wire_access_ns": 529.2`, `"codec_allocs": 0`,
		`"replay_throughput": 3900000`, `"replay_batch": 64`,
		`"feedback_ingest_ns": 22.1`, `"Throughput": 640000`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("updated file missing %q:\n%s", want, s)
		}
	}
	// The refreshed file must pass its own gate.
	code = run(writeBaseline(t), path, "", strings.NewReader(sampleOnlineBench), &out)
	if code != 0 {
		t.Fatalf("self-gate exit %d:\n%s", code, out.String())
	}
}

func TestRouterGatePassesAtBaseline(t *testing.T) {
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(sampleOnlineBench), &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	for _, want := range []string{
		"BenchmarkRouterAccess", "BenchmarkDirectAccess",
		"overhead(routed vs direct access, same run)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("router gate %q not checked:\n%s", want, out.String())
		}
	}
}

func TestRouterGateFailsOnOverhead(t *testing.T) {
	// Routed access 4x the direct access: absolute baselines may pass under a
	// loose tolerance, but the same-run overhead contract (3x) must fail.
	slow := strings.Replace(sampleOnlineBench,
		"BenchmarkRouterAccess-1  200000  6012 ns/op  120 B/op  3 allocs/op",
		"BenchmarkRouterAccess-1  200000  12100 ns/op  120 B/op  3 allocs/op", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(slow), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL overhead(routed vs direct access") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRouterGateFailsClosedOnMissingBench(t *testing.T) {
	// The router benchmarks vanishing from bench-ci's input must error, not
	// silently stop enforcing the overhead contract.
	noRouter := strings.Replace(sampleOnlineBench,
		"BenchmarkRouterAccess-1  200000  6012 ns/op  120 B/op  3 allocs/op\n", "", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(noRouter), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), `"router" benchmarks missing`) {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRouterGateFailsClosedWithoutSection(t *testing.T) {
	noSection := strings.Replace(sampleServeBaseline, `"router": {
    "router_access_ns": 5900, "direct_access_ns": 2950,
    "replay_throughput": 300000
  },
  `, "", 1)
	if noSection == sampleServeBaseline {
		t.Fatal("fixture replace failed")
	}
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, noSection), "",
		strings.NewReader(sampleOnlineBench), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), `"router"`) {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestWriteRouterPreservesReplayAndOtherKeys(t *testing.T) {
	path := writeServeBaseline(t, sampleServeBaseline)
	var out strings.Builder
	code := run("", "", path, strings.NewReader(sampleOnlineBench), &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	updated, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(updated)
	for _, want := range []string{
		`"router_access_ns": 6012`, `"direct_access_ns": 2987`,
		`"replay_throughput": 300000`, `"codec_ns": 2156`, `"feedback_ingest_ns": 22.1`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("updated file missing %q:\n%s", want, s)
		}
	}
	// The refreshed file must pass its own gate.
	code = run(writeBaseline(t), path, "", strings.NewReader(sampleOnlineBench), &out)
	if code != 0 {
		t.Fatalf("self-gate exit %d:\n%s", code, out.String())
	}
}

func TestWriteRouterRefusesPartialInput(t *testing.T) {
	path := writeServeBaseline(t, sampleServeBaseline)
	var out strings.Builder
	// Missing BenchmarkDirectAccess: must refuse rather than gut the section.
	code := run("", "", path,
		strings.NewReader("BenchmarkRouterAccess-1 100 6012 ns/op\n"), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
}

func TestWriteBinaryRefusesWithoutBenchmem(t *testing.T) {
	path := writeServeBaseline(t, sampleServeBaseline)
	var out strings.Builder
	// Wire benchmarks measured without -benchmem: no allocs columns, so the
	// update must refuse rather than zero the alloc baselines.
	in := "BenchmarkWireCodec-1 550000 2156 ns/op\nBenchmarkWireAccessBinary-1 2000000 529.2 ns/op\n"
	code := run("", "", path, strings.NewReader(in), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "-benchmem") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestWriteRouterBadBaselineFile: every way the baseline file itself can be
// wrong — missing, not JSON, or holding a "router" section that is not an
// object — refuses loudly with exit 2 instead of writing anything.
func TestWriteRouterBadBaselineFile(t *testing.T) {
	in := "BenchmarkRouterAccess-1 100 6012 ns/op\nBenchmarkDirectAccess-1 100 2987 ns/op\n"
	cases := []struct {
		name, contents string
		missing        bool
	}{
		{name: "missing file", missing: true},
		{name: "not json", contents: "{nope"},
		{name: "router not an object", contents: `{"router": 7}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "serve.json")
			if !c.missing {
				if err := os.WriteFile(path, []byte(c.contents), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var out strings.Builder
			code := run("", "", path, strings.NewReader(in), &out)
			if code != 2 {
				t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
			}
		})
	}
}

func TestQuantGatePassesAtBaseline(t *testing.T) {
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(sampleOnlineBench), &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	for _, want := range []string{
		"BenchmarkDartInferQuant", "BenchmarkQuantRowAccum@allocs",
		"speedup(quant vs float dart infer, same run)",
		"shrink(quant vs float dart storage_bytes)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("quant gate %q not checked:\n%s", want, out.String())
		}
	}
}

func TestQuantGateFailsWhenNotFasterThanFloat(t *testing.T) {
	// Quantized inference as slow as the float tables: absolute baselines may
	// pass under a loose tolerance, but the same-run quant-beats-float check
	// — the tentpole's acceptance bar — must fail.
	slow := strings.Replace(sampleOnlineBench,
		"BenchmarkDartInferQuant-1  1500  161234 ns/op  1995 storage_bytes  84000 B/op  980 allocs/op",
		"BenchmarkDartInferQuant-1  1500  260000 ns/op  1995 storage_bytes  84000 B/op  980 allocs/op", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(slow), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL speedup(quant vs float dart infer") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestQuantGateFailsBelowShrink(t *testing.T) {
	// Quantized storage only 3.2x below float (e.g. a float64 side table crept
	// into the quantized hierarchy): below the 4x bar.
	bloated := strings.Replace(sampleOnlineBench,
		"161234 ns/op  1995 storage_bytes",
		"161234 ns/op  2500 storage_bytes", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(bloated), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL shrink(quant vs float dart storage_bytes)") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestQuantGateFailsOnRowKernelAlloc(t *testing.T) {
	// The gather-accumulate row kernel picking up a single allocation fails
	// against its zero baseline with no tolerance, even with ns/op unchanged.
	leaky := strings.Replace(sampleOnlineBench,
		"BenchmarkQuantRowAccum-1  40000000  29.8 ns/op  0 B/op  0 allocs/op",
		"BenchmarkQuantRowAccum-1  40000000  29.8 ns/op  64 B/op  1 allocs/op", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(leaky), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkQuantRowAccum@allocs") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestQuantGateFailsClosedOnMissingBench(t *testing.T) {
	// The quantized benchmarks vanishing from bench-ci's input must error,
	// not silently stop enforcing the int8 acceptance bars.
	noQuant := strings.Replace(sampleOnlineBench,
		"BenchmarkDartInferQuant-1  1500  161234 ns/op  1995 storage_bytes  84000 B/op  980 allocs/op\n", "", 1)
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(noQuant), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), `"quant" benchmarks missing`) {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestQuantGateFailsClosedWithoutSection(t *testing.T) {
	noSection := strings.Replace(sampleServeBaseline, `"quant": {
    "dart_infer_quant_ns": 160000, "dart_infer_quant_allocs": 980,
    "dart_quant_storage_bytes": 1995,
    "quant_row_ns": 30, "quant_row_allocs": 0
  },
  `, "", 1)
	if noSection == sampleServeBaseline {
		t.Fatal("fixture replace failed")
	}
	var out strings.Builder
	code := run(writeBaseline(t), writeServeBaseline(t, noSection), "",
		strings.NewReader(sampleOnlineBench), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), `"quant"`) {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestWriteQuantPreservesOtherKeys(t *testing.T) {
	path := writeServeBaseline(t, sampleServeBaseline)
	var out strings.Builder
	code := run("", "", path, strings.NewReader(sampleOnlineBench), &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	updated, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(updated)
	for _, want := range []string{
		`"dart_infer_quant_ns": 161234`, `"dart_quant_storage_bytes": 1995`,
		`"quant_row_ns": 29.8`, `"quant_row_allocs": 0`,
		`"feedback_ingest_ns": 22.1`, `"codec_ns": 2156`, `"Throughput": 640000`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("updated file missing %q:\n%s", want, s)
		}
	}
	// The refreshed file must pass its own gate.
	code = run(writeBaseline(t), path, "", strings.NewReader(sampleOnlineBench), &out)
	if code != 0 {
		t.Fatalf("self-gate exit %d:\n%s", code, out.String())
	}
}

func TestWriteQuantRefusesWithoutBenchmem(t *testing.T) {
	path := writeServeBaseline(t, sampleServeBaseline)
	var out strings.Builder
	// Quant benchmarks measured without -benchmem: no allocs columns, so the
	// update must refuse rather than zero the alloc baselines.
	in := "BenchmarkDartInferQuant-1 1500 161234 ns/op 1995 storage_bytes\nBenchmarkQuantRowAccum-1 40000000 29.8 ns/op\n"
	code := run("", "", path, strings.NewReader(in), &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "-benchmem") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// rowName is how the report names a row; a ratio over sizes keeps its %d.
func rowName(g gate) string {
	if g.kind == ratio {
		return g.name
	}
	return g.key
}

// gateNamed is the table row reported as name.
func gateNamed(t *testing.T, name string) gate {
	t.Helper()
	for _, g := range gates {
		if rowName(g) == name {
			return g
		}
	}
	t.Fatalf("no gate row %q", name)
	return gate{}
}

// fullParBaseline has every matmul size of the table, so that each
// BENCH_par.json row can be pushed past its own limit.
const fullParBaseline = `{
  "matmul": [
    {"n": 64,   "serial_ns": 100000,    "par_ns": {"w1": 30000,    "w2": 28000,    "w4": 25000}},
    {"n": 128,  "serial_ns": 1000000,   "par_ns": {"w1": 200000,   "w2": 190000,   "w4": 190000}},
    {"n": 256,  "serial_ns": 7700000,   "par_ns": {"w1": 1400000,  "w2": 1600000,  "w4": 1600000}},
    {"n": 512,  "serial_ns": 70000000,  "par_ns": {"w1": 12000000, "w2": 11500000, "w4": 11000000}},
    {"n": 1024, "serial_ns": 650000000, "par_ns": {"w1": 80000000, "w2": 82000000, "w4": 80000000}}
  ],
  "tabular": {"ns_per_op": 1800000}
}`

// formatBench renders measurements as go test -bench lines.
func formatBench(got map[string]float64) string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(got)) {
		if strings.Contains(name, "@") {
			continue
		}
		fmt.Fprintf(&b, "%s-1 1 %s ns/op", name, num(got[name]))
		if v, ok := got[name+"@storage_bytes"]; ok {
			fmt.Fprintf(&b, " %s storage_bytes", num(v))
		}
		if v, ok := got[name+"@allocs"]; ok {
			fmt.Fprintf(&b, " %s allocs/op", num(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// serveWith is sampleServeBaseline with the field at ref ("section.field")
// set to v, or deleted when v is nil.
func serveWith(t *testing.T, ref string, v any) string {
	t.Helper()
	var d map[string]any
	if err := json.Unmarshal([]byte(sampleServeBaseline), &d); err != nil {
		t.Fatal(err)
	}
	sec, f, _ := strings.Cut(ref, ".")
	m := d[sec].(map[string]any)
	if v == nil {
		delete(m, f)
	} else {
		m[f] = v
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEveryGateFailsOnItsOwn walks the table. Pushing any one row's value
// past its limit must fail that row with exit 1. Removing any input a
// BENCH_serve.json row reads, measured or recorded, or zeroing a baseline a
// tolerance or ratio divides by, must fail closed with exit 2; removing a
// BENCH_par.json row's measurement only warns.
func TestEveryGateFailsOnItsOwn(t *testing.T) {
	par := filepath.Join(t.TempDir(), "par.json")
	if err := os.WriteFile(par, []byte(fullParBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	var base [2]any
	if err := json.Unmarshal([]byte(fullParBaseline), &base[parDoc]); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(sampleServeBaseline), &base[serveDoc]); err != nil {
		t.Fatal(err)
	}
	got, err := parseBench(strings.NewReader(sampleOnlineBench))
	if err != nil {
		t.Fatal(err)
	}
	gateRun := func(t *testing.T, serve string, m map[string]float64) (int, string) {
		var out strings.Builder
		code := run(par, writeServeBaseline(t, serve), "", strings.NewReader(formatBench(m)), &out)
		return code, out.String()
	}
	if code, out := gateRun(t, sampleServeBaseline, got); code != 0 {
		t.Fatalf("unpushed fixture: exit %d, want 0; output:\n%s", code, out)
	}
	// The largest matmul size sampleBench measures on both sides.
	const speedupSize = 512

	for _, g := range gates {
		if g.kind == record {
			continue
		}
		t.Run(rowName(g), func(t *testing.T) {
			t.Run("past limit", func(t *testing.T) {
				m, serve, name := maps.Clone(got), sampleServeBaseline, rowName(g)
				switch g.kind {
				case tol:
					b, _ := value(base[g.doc], g.section+"."+g.field)
					m[g.key] = b * tolerance * 1.1
				case exactAllocs:
					b, _ := value(base[g.doc], g.section+"."+g.field)
					m[g.key] = b + 1
				case ratio:
					// Move the numerator so the ratio lands 10% past its bar.
					target := g.bar * 0.9
					if g.cmp == "<=" {
						target = g.bar * 1.1
					}
					switch {
					case g.recorded:
						den, _ := value(base[serveDoc], g.den)
						serve = serveWith(t, g.num, den*target)
					case g.sizes != nil:
						num, den := fmt.Sprintf(g.num, speedupSize), fmt.Sprintf(g.den, speedupSize)
						m[num] = m[den] * target
						name = fmt.Sprintf(g.name, speedupSize)
					default:
						m[g.num] = m[g.den] * target
					}
				}
				code, out := gateRun(t, serve, m)
				if code != 1 || !strings.Contains(out, "FAIL "+name+" ") {
					t.Fatalf("exit %d, want 1 with FAIL %s; output:\n%s", code, name, out)
				}
			})

			var keys, refs []string // measured and recorded inputs of the row
			switch {
			case g.kind != ratio:
				keys = []string{g.key}
			case g.recorded:
				refs = []string{g.num, g.den}
			case g.sizes == nil:
				keys = []string{g.num, g.den}
			}
			if g.doc == serveDoc && g.field != "" {
				refs = append(refs, g.section+"."+g.field)
			}
			for _, k := range keys {
				t.Run("without "+k, func(t *testing.T) {
					m := maps.Clone(got)
					delete(m, k)
					if !strings.Contains(k, "@") { // the whole benchmark line
						delete(m, k+"@allocs")
						delete(m, k+"@storage_bytes")
					}
					code, out := gateRun(t, sampleServeBaseline, m)
					switch {
					case g.doc == parDoc && (code != 0 || !strings.Contains(out, "warn "+k+" ")):
						t.Fatalf("exit %d, want 0 with a warning for %s; output:\n%s", code, k, out)
					case g.doc == serveDoc && (code != 2 || !strings.Contains(out, k)):
						t.Fatalf("exit %d, want 2 naming %s; output:\n%s", code, k, out)
					}
				})
			}
			for _, ref := range refs {
				for _, v := range []any{nil, 0.0} {
					if v != nil && g.kind == exactAllocs {
						continue // 0 is a valid allocs baseline
					}
					t.Run(fmt.Sprintf("baseline %s=%v", ref, v), func(t *testing.T) {
						code, out := gateRun(t, serveWith(t, ref, v), got)
						if code != 2 || !strings.Contains(out, ref) {
							t.Fatalf("exit %d, want 2 naming %s; output:\n%s", code, ref, out)
						}
					})
				}
			}
		})
	}
}

// TestRatioRendersTwoDecimals: ratios print with two decimals, so a 1.29x
// margin over a 1x bar does not read as "1 vs 1".
func TestRatioRendersTwoDecimals(t *testing.T) {
	var out strings.Builder
	if code := run(writeBaseline(t), writeServeBaseline(t, sampleServeBaseline), "",
		strings.NewReader(sampleOnlineBench), &out); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	// 321442 / 249812 ns = 1.2867.
	want := regexp.MustCompile(`(?m)^ok   speedup\(dart vs student infer, same run\) +measured +1\.29  limit +1\.00$`)
	if !want.MatchString(out.String()) {
		t.Fatalf("no 1.29 ratio line in output:\n%s", out.String())
	}
}

// TestGateOutputIsDeterministic: repeated runs on one input print the same
// bytes, passing or failing closed.
func TestGateOutputIsDeterministic(t *testing.T) {
	par, serve := writeBaseline(t), writeServeBaseline(t, sampleServeBaseline)
	for _, in := range []string{sampleOnlineBench, sampleBench} {
		var first string
		for i := 0; i < 5; i++ {
			var out strings.Builder
			run(par, serve, "", strings.NewReader(in), &out)
			if i == 0 {
				first = out.String()
			} else if out.String() != first {
				t.Fatalf("run %d differs:\n%s\nfirst run:\n%s", i, out.String(), first)
			}
		}
	}
}

// TestWriteRewritesOwnedFieldsOnly: one -write over a full bench output sets
// every field a BENCH_serve.json row owns to its measurement, adding the
// fields and sections the file lacks, and leaves every other key as it was.
func TestWriteRewritesOwnedFieldsOnly(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOnlineBench))
	if err != nil {
		t.Fatal(err)
	}
	for k := range got {
		got[k]++ // differ from every baseline value, keeping allocs integral
	}
	owned := map[string]string{} // field ref -> measured key
	for _, g := range gates {
		if g.doc == serveDoc && g.kind != ratio {
			owned[g.section+"."+g.field] = g.key
		}
	}
	// flat maps "section.key" (or a top-level key) to its value.
	flat := func(d any) map[string]any {
		out := map[string]any{}
		for top, v := range d.(map[string]any) {
			sec, ok := v.(map[string]any)
			if !ok {
				out[top] = v
			}
			for k, kv := range sec {
				out[top+"."+k] = kv
			}
		}
		return out
	}
	for _, start := range []string{
		sampleServeBaseline,
		`{"generated": "x", "binary": {"replay_throughput": 1}, "report": {"Throughput": 2}}`,
	} {
		path := writeServeBaseline(t, start)
		var out strings.Builder
		if code := run("", "", path, strings.NewReader(formatBench(got)), &out); code != 0 {
			t.Fatalf("exit %d, output:\n%s", code, out.String())
		}
		after, err := readDoc(path)
		if err != nil {
			t.Fatal(err)
		}
		var before any
		if err := json.Unmarshal([]byte(start), &before); err != nil {
			t.Fatal(err)
		}
		a, b := flat(after), flat(before)
		for ref, key := range owned {
			if a[ref] != any(got[key]) {
				t.Errorf("%s = %v, want the measured %s %v", ref, a[ref], key, got[key])
			}
		}
		for ref, v := range a {
			if _, ok := owned[ref]; !ok && !reflect.DeepEqual(v, b[ref]) {
				t.Errorf("%s: %v before -write, %v after", ref, b[ref], v)
			}
		}
		for ref := range b {
			if _, ok := a[ref]; !ok {
				t.Errorf("%s dropped by -write", ref)
			}
		}
	}
}

// TestWriteKeepsLayout: rewriting the committed BENCH_serve.json with the
// values it already holds reproduces it byte for byte, so a refresh diff
// shows only the numbers that moved.
func TestWriteKeepsLayout(t *testing.T) {
	committed, err := os.ReadFile("../../BENCH_serve.json")
	if err != nil {
		t.Fatal(err)
	}
	d, err := readDoc("../../BENCH_serve.json")
	if err != nil {
		t.Fatal(err)
	}
	same := map[string]float64{}
	for _, g := range gates {
		if g.doc == serveDoc && g.kind != ratio {
			same[g.key], _ = value(d, g.section+"."+g.field)
		}
	}
	path := writeServeBaseline(t, string(committed))
	var out strings.Builder
	if code := run("", "", path, strings.NewReader(formatBench(same)), &out); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, committed) {
		t.Fatalf("rewrite changed the file:\n%s", rewritten)
	}
}

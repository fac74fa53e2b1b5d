// Command dart-benchcheck is the CI perf-regression gate. It parses `go test
// -bench -benchmem` output and checks it against one ordered table of gates
// (see gates), each row reading a baseline value from BENCH_par.json or
// BENCH_serve.json, measurements from the bench output, or both.
//
//	dart-benchcheck -baseline BENCH_par.json -serve-baseline BENCH_serve.json bench-ci.out
//	dart-benchcheck -write BENCH_serve.json bench-update.out
//
// A measured key is a benchmark name (its ns/op), name@allocs (the -benchmem
// column) or name@storage_bytes (the metric the infer benchmarks report);
// repeated lines, as from -count, keep the minimum. Each row has one kind:
//
//   - tolerance: measured <= baseline × 1.5. Generous because CI hosts differ
//     from the recording host: it catches a lost vector kernel or worker pool,
//     not single-digit drift.
//   - exact-allocs: measured allocs/op <= baseline, no tolerance. Allocation
//     counts are deterministic and most baselines are 0, so one new
//     allocation on a serving hot path fails.
//   - ratio: num/den against a constant bar (>, >= or <=). Both sides ran in
//     the same run on the same host, so the bar holds on any host: the
//     student beats the teacher, dart tables beat the student, int8 tables
//     beat float ones and are >= 4x smaller, the router hop stays <= 3x a
//     direct access, and par w4 beats serial >= 2x at the largest matmul size
//     measured on both sides. One ratio is recorded rather than measured: the
//     binary replay throughput must be >= 5x the JSON one, both read from
//     BENCH_serve.json, where the replay commands of `make bench-update`
//     record them.
//   - record: a field -write refreshes that no check reads (storage_bytes).
//
// BENCH_par.json rows warn when their baseline or measurement is absent,
// because CI may shrink the matmul grid. BENCH_serve.json rows fail closed:
// an absent section, baseline or measurement exits 2, since a benchmark
// dropped from bench-ci would otherwise silently stop its gate.
//
// -write rewrites every BENCH_serve.json section whose benchmarks are all in
// the input and keeps every key no row owns, such as the replay_* fields
// dart-serve and dart-router record. A section only partly in the input
// refuses with exit 2 and writes nothing.
//
// Exit status 0 when every check passes, 1 on a failed check, 2 on usage or
// missing-data errors.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// tolerance is the allowed slowdown of a measurement over its baseline.
const tolerance = 1.5

// doc names the baseline file a row reads.
type doc int

const (
	parDoc   doc = iota // -baseline, BENCH_par.json
	serveDoc            // -serve-baseline / -write, BENCH_serve.json
)

// kind is how a row compares; see the package comment.
type kind int

const (
	tol kind = iota
	exactAllocs
	ratio
	record
)

// gate is one row of the table. Non-ratio rows pair the baseline value at
// section.field with the measured key; ratio rows divide num by den.
type gate struct {
	doc            doc
	section, field string
	key            string
	kind           kind

	name     string  // ratio rows' report name; other rows report as key
	num, den string  // measured keys, or section.field paths when recorded
	recorded bool    // num and den are read from the baseline file
	sizes    []int   // num, den and name hold %d: use the largest size measured on both sides
	cmp      string  // ">", ">=" or "<="
	bar      float64 // the constant the ratio is compared against
}

// matmulSizes is the BENCH_par.json grid, ascending.
var matmulSizes = []int{64, 128, 256, 512, 1024}

// gates is the whole gate, in report order.
var gates = append(parGates(),
	serveRow("online", "feedback_ingest_ns", "BenchmarkFeedbackIngest", tol),
	serveRow("online", "swap_ns", "BenchmarkModelSwap", tol),
	serveRow("online", "teacher_infer_ns", "BenchmarkTeacherInfer", tol),
	serveRow("online", "student_infer_ns", "BenchmarkStudentInfer", tol),
	serveRow("online", "distill_cycle_ns", "BenchmarkDistillCycle", tol),
	serveRow("online", "dart_infer_ns", "BenchmarkDartInfer", tol),
	serveRow("online", "tabular_swap_ns", "BenchmarkTabularSwap", tol),
	serveRow("online", "teacher_storage_bytes", "BenchmarkTeacherInfer@storage_bytes", record),
	serveRow("online", "student_storage_bytes", "BenchmarkStudentInfer@storage_bytes", record),
	serveRow("online", "dart_storage_bytes", "BenchmarkDartInfer@storage_bytes", record),
	serveRow("online", "policy_decision_ns", "BenchmarkPolicyDecision", tol),
	serveRow("online", "policy_decision_allocs", "BenchmarkPolicyDecision@allocs", exactAllocs),
	sameRun("online", "speedup(student vs teacher infer, same run)", "BenchmarkTeacherInfer", "BenchmarkStudentInfer", ">", 1),
	sameRun("online", "shrink(student vs teacher storage_bytes)", "BenchmarkTeacherInfer@storage_bytes", "BenchmarkStudentInfer@storage_bytes", ">", 1),
	sameRun("online", "speedup(dart vs student infer, same run)", "BenchmarkStudentInfer", "BenchmarkDartInfer", ">", 1),

	serveRow("quant", "dart_infer_quant_ns", "BenchmarkDartInferQuant", tol),
	serveRow("quant", "dart_infer_quant_allocs", "BenchmarkDartInferQuant@allocs", exactAllocs),
	serveRow("quant", "dart_quant_storage_bytes", "BenchmarkDartInferQuant@storage_bytes", record),
	serveRow("quant", "quant_row_ns", "BenchmarkQuantRowAccum", tol),
	serveRow("quant", "quant_row_allocs", "BenchmarkQuantRowAccum@allocs", exactAllocs),
	sameRun("quant", "speedup(quant vs float dart infer, same run)", "BenchmarkDartInfer", "BenchmarkDartInferQuant", ">", 1),
	sameRun("quant", "shrink(quant vs float dart storage_bytes)", "BenchmarkDartInfer@storage_bytes", "BenchmarkDartInferQuant@storage_bytes", ">=", 4),

	serveRow("binary", "codec_ns", "BenchmarkWireCodec", tol),
	serveRow("binary", "codec_allocs", "BenchmarkWireCodec@allocs", exactAllocs),
	serveRow("binary", "wire_access_ns", "BenchmarkWireAccessBinary", tol),
	serveRow("binary", "wire_access_allocs", "BenchmarkWireAccessBinary@allocs", exactAllocs),
	gate{doc: serveDoc, section: "binary", kind: ratio, name: "speedup(binary vs json replay, recorded)",
		num: "binary.replay_throughput", den: "report.Throughput", recorded: true, cmp: ">=", bar: 5},

	serveRow("router", "router_access_ns", "BenchmarkRouterAccess", tol),
	serveRow("router", "direct_access_ns", "BenchmarkDirectAccess", tol),
	sameRun("router", "overhead(routed vs direct access, same run)", "BenchmarkRouterAccess", "BenchmarkDirectAccess", "<=", 3),
)

// parGates are the BENCH_par.json rows: every matmul grid point, the tabular
// batch query, and the par-vs-serial speedup.
func parGates() []gate {
	var gs []gate
	for _, n := range matmulSizes {
		sec := fmt.Sprintf("matmul.n=%d", n)
		gs = append(gs, gate{doc: parDoc, section: sec, field: "serial_ns", key: fmt.Sprintf("BenchmarkMatMul/serial/n%d", n), kind: tol})
		for _, w := range []string{"w1", "w2", "w4"} {
			gs = append(gs, gate{doc: parDoc, section: sec, field: "par_ns." + w, key: fmt.Sprintf("BenchmarkMatMul/par/n%d/%s", n, w), kind: tol})
		}
	}
	return append(gs,
		gate{doc: parDoc, section: "tabular", field: "ns_per_op", key: "BenchmarkHierarchyQueryBatch", kind: tol},
		gate{doc: parDoc, section: "matmul", kind: ratio, name: "speedup(par w4 vs serial, n=%d)",
			num: "BenchmarkMatMul/serial/n%d", den: "BenchmarkMatMul/par/n%d/w4", sizes: matmulSizes, cmp: ">=", bar: 2},
	)
}

func serveRow(section, field, key string, k kind) gate {
	return gate{doc: serveDoc, section: section, field: field, key: key, kind: k}
}

func sameRun(section, name, num, den, cmp string, bar float64) gate {
	return gate{doc: serveDoc, section: section, kind: ratio, name: name, num: num, den: den, cmp: cmp, bar: bar}
}

// check is one evaluated row.
type check struct {
	name            string
	measured, limit float64
	ok              bool
	ratio           bool
}

// eval checks one row. When a baseline value or measurement is absent it
// returns what is absent instead of a check.
func (g gate) eval(base [2]any, got map[string]float64) (check, []string) {
	if g.kind == ratio {
		return g.evalRatio(base, got)
	}
	var missing []string
	ref := g.section + "." + g.field
	b, ok := value(base[g.doc], ref)
	if !ok || (g.kind == tol && b <= 0) {
		missing = append(missing, ref)
	}
	m, ok := got[g.key]
	if !ok {
		missing = append(missing, g.key)
	}
	if missing != nil {
		return check{}, missing
	}
	limit := b
	if g.kind == tol {
		limit *= tolerance
	}
	return check{name: g.key, measured: m, limit: limit, ok: m <= limit}, nil
}

func (g gate) evalRatio(base [2]any, got map[string]float64) (check, []string) {
	name, num, den := g.name, g.num, g.den
	if g.sizes != nil {
		n := g.sizes[len(g.sizes)-1]
		for _, s := range g.sizes {
			_, ok1 := got[fmt.Sprintf(g.num, s)]
			_, ok2 := got[fmt.Sprintf(g.den, s)]
			if ok1 && ok2 {
				n = s
			}
		}
		name, num, den = fmt.Sprintf(g.name, n), fmt.Sprintf(g.num, n), fmt.Sprintf(g.den, n)
	}
	operand := func(k string) (float64, bool) {
		if g.recorded {
			return value(base[g.doc], k)
		}
		v, ok := got[k]
		return v, ok
	}
	var missing []string
	nv, ok := operand(num)
	if !ok || nv <= 0 {
		missing = append(missing, num)
	}
	dv, ok := operand(den)
	if !ok || dv <= 0 {
		missing = append(missing, den)
	}
	if missing != nil {
		return check{}, missing
	}
	r := nv / dv
	pass := r <= g.bar
	switch g.cmp {
	case ">":
		pass = r > g.bar
	case ">=":
		pass = r >= g.bar
	}
	return check{name: name, measured: r, limit: g.bar, ok: pass, ratio: true}, nil
}

// lookup walks a decoded JSON document along a dotted path. A segment such
// as "n=512" picks the array element whose "n" field is 512.
func lookup(node any, path string) any {
	for _, seg := range strings.Split(path, ".") {
		switch v := node.(type) {
		case map[string]any:
			node = v[seg]
		case []any:
			k, want, _ := strings.Cut(seg, "=")
			node = nil
			for _, el := range v {
				if m, ok := el.(map[string]any); ok && fmt.Sprint(m[k]) == want {
					node = m
					break
				}
			}
		default:
			return nil
		}
	}
	return node
}

// value is the number at path, if there is one.
func value(node any, path string) (float64, bool) {
	v, ok := lookup(node, path).(float64)
	return v, ok
}

// benchLine matches e.g. "BenchmarkMatMul/par/n512/w4-8   100  11093275 ns/op".
// The -N GOMAXPROCS suffix is optional: go test omits it when GOMAXPROCS=1.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// storageMetric matches the custom "storage_bytes" metric the infer
// benchmarks report (b.ReportMetric); the value lands in the parse map under
// "<name>@storage_bytes".
var storageMetric = regexp.MustCompile(`([0-9.]+) storage_bytes`)

// allocsMetric matches the allocs/op column -benchmem appends; the value
// lands in the parse map under "<name>@allocs".
var allocsMetric = regexp.MustCompile(`([0-9]+) allocs/op`)

// parseBench extracts name -> ns/op (plus "<name>@storage_bytes" and
// "<name>@allocs" for the -benchmem / custom-metric columns) from go test
// -bench output. Repeated names (e.g. from -count) keep the minimum, the
// standard noise filter.
func parseBench(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		if prev, ok := out[m[1]]; !ok || ns < prev {
			out[m[1]] = ns
		}
		if sm := storageMetric.FindStringSubmatch(sc.Text()); sm != nil {
			v, err := strconv.ParseFloat(sm[1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad storage_bytes in %q: %w", sc.Text(), err)
			}
			out[m[1]+"@storage_bytes"] = v
		}
		if am := allocsMetric.FindStringSubmatch(sc.Text()); am != nil {
			v, err := strconv.ParseFloat(am[1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", sc.Text(), err)
			}
			key := m[1] + "@allocs"
			if prev, ok := out[key]; !ok || v < prev {
				out[key] = v
			}
		}
	}
	return out, sc.Err()
}

func readDoc(path string) (any, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d any
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return d, nil
}

// run executes the gate, or with writePath set the baseline update, and
// returns the process exit code.
func run(parPath, servePath, writePath string, in io.Reader, out io.Writer) int {
	got, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(out, "benchcheck: %v\n", err)
		return 2
	}
	if len(got) == 0 {
		fmt.Fprintln(out, "benchcheck: no benchmark results in input")
		return 2
	}
	if writePath != "" {
		if err := write(writePath, got, out); err != nil {
			fmt.Fprintf(out, "benchcheck: %v; not updating %s\n", err, writePath)
			return 2
		}
		return 0
	}
	var base [2]any
	if base[parDoc], err = readDoc(parPath); err != nil {
		fmt.Fprintf(out, "benchcheck: %v\n", err)
		return 2
	}
	if servePath != "" {
		if base[serveDoc], err = readDoc(servePath); err != nil {
			fmt.Fprintf(out, "benchcheck: %v\n", err)
			return 2
		}
	}

	var checks []check
	var warns []string
	missing := map[string][]string{} // fail-closed section -> absent inputs
	for _, g := range gates {
		if g.kind == record || base[g.doc] == nil {
			continue
		}
		c, absent := g.eval(base, got)
		switch {
		case absent == nil:
			checks = append(checks, c)
		case g.doc == parDoc:
			warns = append(warns, absent...)
		default:
			for _, a := range absent {
				if !slices.Contains(missing[g.section], a) {
					missing[g.section] = append(missing[g.section], a)
				}
			}
		}
	}
	if len(missing) > 0 {
		for _, sec := range slices.Sorted(maps.Keys(missing)) {
			fmt.Fprintf(out, "benchcheck: %q benchmarks missing from input or baseline: %v\n", sec, missing[sec])
		}
		return 2
	}
	if len(checks) == 0 {
		// Benchmark names drifting away from the baseline schema must not
		// silently disable the gate.
		fmt.Fprintf(out, "benchcheck: no measured benchmark matched any baseline entry (missing: %v)\n", warns)
		return 2
	}

	fail := 0
	for _, c := range checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
			fail++
		}
		prec := 0
		if c.ratio {
			prec = 2
		}
		fmt.Fprintf(out, "%s %-44s measured %12.*f  limit %12.*f\n", status, c.name, prec, c.measured, prec, c.limit)
	}
	for _, w := range warns {
		fmt.Fprintf(out, "warn %-44s missing from input or baseline\n", w)
	}
	if fail > 0 {
		fmt.Fprintf(out, "benchcheck: %d of %d checks failed (tolerance %.2fx)\n", fail, len(checks), tolerance)
		return 1
	}
	fmt.Fprintf(out, "benchcheck: %d checks passed (tolerance %.2fx)\n", len(checks), tolerance)
	return 0
}

// write rewrites, in the serve baseline file at path, every section whose
// owned measurements (the keys of its non-ratio rows) are all in got. Keys
// no row owns keep their values and order. A section only partly measured
// is an error, and then nothing is written.
func write(path string, got map[string]float64, out io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if top == nil {
		return fmt.Errorf("%s is not a JSON object", path)
	}
	var sections []string
	owned := map[string][]gate{}
	for _, g := range gates {
		if g.doc == serveDoc && g.kind != ratio {
			if owned[g.section] == nil {
				sections = append(sections, g.section)
			}
			owned[g.section] = append(owned[g.section], g)
		}
	}
	var updated []string
	for _, sec := range sections {
		var lack []string
		for _, g := range owned[sec] {
			if _, ok := got[g.key]; !ok {
				lack = append(lack, g.key)
			}
		}
		if len(lack) == len(owned[sec]) {
			continue
		}
		if len(lack) > 0 {
			return fmt.Errorf("input has only part of the %q section, lacking %v (@allocs needs -benchmem)", sec, lack)
		}
		fields, err := parseObject(top[sec])
		if err != nil {
			return fmt.Errorf("parsing %s %q section: %w", path, sec, err)
		}
		for _, g := range owned[sec] {
			fields = setField(fields, g.field, got[g.key])
		}
		top[sec] = marshalObject(fields)
		updated = append(updated, sec)
	}
	if updated == nil {
		return errors.New("input holds no BENCH_serve.json section")
	}
	b, err := json.MarshalIndent(top, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "benchcheck: %s sections %v updated\n", path, updated)
	return nil
}

// field is one key of a JSON object. Sections are kept as ordered fields so
// a rewrite leaves the baseline file's layout, and its diff, alone.
type field struct {
	key string
	val json.RawMessage
}

func parseObject(raw json.RawMessage) ([]field, error) {
	if raw == nil {
		return nil, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return nil, errors.New("not a JSON object")
	}
	var fs []field
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return nil, err
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, err
		}
		fs = append(fs, field{t.(string), v}) // object keys are strings
	}
	return fs, nil
}

func setField(fs []field, key string, v float64) []field {
	b, _ := json.Marshal(v) // v is finite: parseBench reads it from digits
	for i := range fs {
		if fs[i].key == key {
			fs[i].val = b
			return fs
		}
	}
	return append(fs, field{key, b})
}

func marshalObject(fs []field) json.RawMessage {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range fs {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(f.key) // a string always marshals
		b.Write(k)
		b.WriteByte(':')
		b.Write(f.val)
	}
	b.WriteByte('}')
	return b.Bytes()
}

func main() {
	parPath := flag.String("baseline", "BENCH_par.json", "matmul/tabular baseline file")
	servePath := flag.String("serve-baseline", "", "also run the serving gates against this file (e.g. BENCH_serve.json)")
	writePath := flag.String("write", "", "update mode: rewrite this file's serving sections from the measured benchmarks")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	os.Exit(run(*parPath, *servePath, *writePath, in, os.Stdout))
}

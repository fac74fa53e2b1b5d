package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"dart/internal/mat"
	"dart/internal/tabular"
)

func TestTailIndexKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, idx int
		ok     bool
	}{
		{n: 10, ok: false},
		{n: 11, idx: 0, ok: true},
		{n: 500, idx: 489, ok: true},   // p99 would leave 5 beyond; p98 leaves 10
		{n: 1000, idx: 989, ok: true},  // p99 leaves exactly 10
		{n: 5000, idx: 4949, ok: true}, // p99 leaves 50, no cap needed
	} {
		idx, ok := tailIndex(c.n, 0.99)
		if ok != c.ok || (ok && idx != c.idx) {
			t.Errorf("tailIndex(%d) = %d, %v; want %d, %v", c.n, idx, ok, c.idx, c.ok)
		}
		if ok && c.n-1-idx < minBeyond {
			t.Errorf("n=%d: only %d samples beyond index %d", c.n, c.n-1-idx, idx)
		}
	}
}

func TestTailReportsPercentileAndCount(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: tail must sort
	}
	q, err := tail(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if q.Value != 490 || q.N != 500 || math.Abs(q.Pct-98) > 1e-9 {
		t.Errorf("tail = %+v, want value 490 at p98 over 500 samples", q)
	}
	if _, err := tail(make([]float64, 10), 0.99); err == nil {
		t.Error("10 samples should leave no reportable tail")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "sim.step", start: 0, end: 100, parent: -1},
		{name: "prefetch.build_input", start: 10, end: 30, parent: 0},
		{name: "tabular.L0-linear-kernel", start: 20, end: 50, parent: 0}, // overlaps the one before
		{name: "prefetch.apply", start: 90, end: 120, parent: 0},          // runs past its parent
		{name: "sim.step", start: 200, end: 210, parent: -1},
		{name: "inner", start: 12, end: 14, parent: 1}, // a grandchild: only its parent loses it
	}
	agg := selfTimes(spans)
	step := agg["sim.step"]
	if step.Count != 2 || step.TotalNs != 110 {
		t.Fatalf("sim.step count %d total %d, want 2 and 110", step.Count, step.TotalNs)
	}
	// 100 - |[10,50] ∪ [90,100]| = 50, plus 10 for the childless step.
	if step.SelfNs != 60 {
		t.Errorf("sim.step self = %d, want 60", step.SelfNs)
	}
	if got := agg["prefetch.build_input"].SelfNs; got != 18 {
		t.Errorf("build_input self = %d, want 18", got)
	}
	if got := agg["prefetch.apply"].SelfNs; got != 30 {
		t.Errorf("apply self = %d, want 30", got)
	}
}

func TestLatencyAndLagRunFromDueTime(t *testing.T) {
	msd := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	// The previous reply arrived at 10 ms; the generator sent at 10.5 ms.
	f := frameRec{due: msd(10), send: msd(10.5), done: msd(40), n: 64, ok: true}
	if f.latency() != msd(30) || f.genLag() != msd(0.5) {
		t.Errorf("latency %v lag %v, want 30ms and 0.5ms", f.latency(), f.genLag())
	}
	frames := []frameRec{f}
	for i := 0; i < 20; i++ {
		frames = append(frames, frameRec{due: msd(50), send: msd(50.1), done: msd(53), n: 64, ok: true})
	}
	s, err := summarize(frames, msd(10))
	if err != nil {
		t.Fatal(err)
	}
	if s.Tail.Value != 3 || s.Tail.N != 21 || s.P95.Value != 3 || s.P50.Value != 3 {
		t.Errorf("tail %+v p95 %+v p50 %+v, want 3 ms over 21 frames", s.Tail, s.P95, s.P50)
	}
	if math.Abs(s.GenLag.Value-0.1) > 1e-9 || s.GenLag.N != 21 {
		t.Errorf("lag %+v, want 0.1 ms over 21 frames", s.GenLag)
	}
	if want := 20.0 / 21; math.Abs(s.SLOMet-want) > 1e-12 {
		t.Errorf("slo met %v, want %v: the 30 ms frame misses a 10 ms limit", s.SLOMet, want)
	}
}

func TestFailedFramesMissTheSLO(t *testing.T) {
	var frames []frameRec
	for i := 0; i < 30; i++ {
		frames = append(frames, frameRec{done: time.Millisecond, n: 64, ok: true})
	}
	frames = append(frames,
		frameRec{done: time.Millisecond, n: 64},      // failed, though fast
		frameRec{done: time.Second, n: 64, ok: true}, // too slow
	)
	s, err := summarize(frames, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if want := 30.0 / 32; math.Abs(s.SLOMet-want) > 1e-12 {
		t.Errorf("slo met %v, want %v", s.SLOMet, want)
	}
	if s.Frames != 32 || s.OK != 31 || s.AccAttempted != 32*64 || s.Accesses != 31*64 || s.Tail.N != 31 {
		t.Errorf("summary counts %+v", s)
	}
}

func TestWindowRateIsMedianOverWholeWindows(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	frames := []frameRec{
		{send: ms(100), done: ms(100), n: 100, ok: true},  // window 0
		{send: ms(900), done: ms(1300), n: 400, ok: true}, // 1/4 in window 0, 3/4 in 1
		{send: ms(2100), done: ms(2200), n: 200, ok: true},
		{send: ms(3100), done: ms(3200), n: 999, ok: true}, // past the last whole window
		{send: ms(150), done: ms(160), n: 999},             // failed
	}
	// three whole windows hold 200, 300 and 200 accesses
	if rate := windowRate(frames, ms(3500), time.Second); math.Abs(rate-200) > 1e-9 {
		t.Errorf("windowRate = %v, want the median window's 200", rate)
	}
}

// namedLayer is a tabular layer with an arbitrary name.
type namedLayer struct{ name string }

func (l namedLayer) Query(x *mat.Matrix) *mat.Matrix { return x }
func (l namedLayer) Cost() tabular.Cost              { return tabular.Cost{} }
func (l namedLayer) Name() string                    { return l.name }

func TestMetricNamesAreValidated(t *testing.T) {
	ms := newMetricSet()
	for _, ok := range []string{"throughput_acc_s", "tabular.L0-linear-kernel.us", "9lives", strings.Repeat("a", 64)} {
		if err := ms.add(ok, 1, "count"); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "linear-kernel(10->16)", "a b", ".lead", "_lead", "µs", strings.Repeat("a", 65)} {
		if err := ms.add(bad, 1, "count"); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if err := ms.add("throughput_acc_s", 2, "acc/s"); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := ms.add("nan_metric", math.NaN(), "count"); err == nil {
		t.Error("NaN value accepted")
	}
	h := &tabular.Hierarchy{Layers: []tabular.Layer{
		namedLayer{"linear-kernel(10->16)"}, tabular.MeanPoolTab{}, namedLayer{"msa-kernel(D=16,H=2)"}}}
	want := []string{"tabular.L0-linear-kernel", "tabular.L1-meanpool", "tabular.L2-msa-kernel"}
	for i, n := range layerSpanNames(h) {
		if n != want[i] {
			t.Errorf("layer %d named %q, want %q", i, n, want[i])
		}
		for _, suffix := range []string{".us", ".allocs", ".cycles"} {
			if !metricName.MatchString(n + suffix) {
				t.Errorf("%q is not a legal metric name", n+suffix)
			}
		}
	}
}

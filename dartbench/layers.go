package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"dart/internal/mat"
	"dart/internal/prefetch"
	"dart/internal/serve"
	"dart/internal/sim"
	"dart/internal/tabular"
	"dart/internal/trace"
)

// Sizes of the layer-isolation passes.
const (
	modelPassAccesses  = 128  // per session, through the DART layer probe
	rulePassAccesses   = 8192 // per session, through a rule-based probe
	transportFrames    = 1500 // frames per transport probe pass
	probeClass         = "none"
	batchTimingSamples = 64
)

// layerProbe is the benchmark's own sim.Prefetcher for the layer-isolation
// pass. Over a DART model it performs NNPrefetcher.OnAccess step by step —
// BuildInput, each hierarchy layer's Query, Apply — with a span around each
// call; over a rule-based prefetcher it wraps OnAccess in one span. It keeps
// what it saw and returned, so the pass can be checked against the real
// OnAccess afterwards.
type layerProbe struct {
	tr     *tracer
	step   int   // index of the enclosing sim.step span
	id     int64 // access id of the current step
	nn     *prefetch.NNPrefetcher
	h      *tabular.Hierarchy
	rule   sim.Prefetcher
	names  []string      // span name of each hierarchy layer
	seen   []sim.Access  // accesses observed
	outs   [][]uint64    // prefetches returned
	inputs []*mat.Matrix // model inputs built, for the per-layer loops
}

// probe builds a layer probe over the model, configured exactly like the
// served sessions' prefetcher.
func (m *model) probe() *layerProbe {
	return &layerProbe{nn: m.nn(), h: m.h, names: layerSpanNames(m.h)}
}

func (p *layerProbe) inner() sim.Prefetcher {
	if p.nn != nil {
		return p.nn
	}
	return p.rule
}

func (p *layerProbe) Name() string      { return p.inner().Name() }
func (p *layerProbe) Latency() int      { return p.inner().Latency() }
func (p *layerProbe) StorageBytes() int { return p.inner().StorageBytes() }

func (p *layerProbe) OnAccess(a sim.Access) []uint64 {
	var out []uint64
	var x *mat.Matrix
	if p.nn == nil {
		sp := p.tr.begin("prefetch.on_access", p.step, p.id)
		out = p.rule.OnAccess(a)
		p.tr.end(sp)
	} else {
		sp := p.tr.begin("prefetch.build_input", p.step, p.id)
		in, ok := p.nn.BuildInput(a)
		p.tr.end(sp)
		if ok {
			bk := p.tr.begin("probe.bookkeeping", p.step, p.id)
			x = in.Clone()
			p.tr.end(bk)
			for i, l := range p.h.Layers {
				sp := p.tr.begin(p.names[i], p.step, p.id)
				in = l.Query(in)
				p.tr.end(sp)
			}
			sp := p.tr.begin("prefetch.apply", p.step, p.id)
			out = p.nn.Apply(a, in.Data)
			p.tr.end(sp)
		}
	}
	bk := p.tr.begin("probe.bookkeeping", p.step, p.id)
	p.seen = append(p.seen, a)
	p.outs = append(p.outs, append([]uint64(nil), out...))
	if x != nil {
		p.inputs = append(p.inputs, x)
	}
	p.tr.end(bk)
	return out
}

// layerSpanNames names each hierarchy layer's span and metric prefix from
// its index and kind: linear-kernel(10->16) at index 0 is
// tabular.L0-linear-kernel.
func layerSpanNames(h *tabular.Hierarchy) []string {
	names := make([]string, len(h.Layers))
	for i, l := range h.Layers {
		kind, _, _ := strings.Cut(l.Name(), "(")
		names[i] = fmt.Sprintf("tabular.L%d-%s", i, kind)
	}
	return names
}

// probePass steps a simulator per session over the first n records with the
// probe as its prefetcher, a sim.step span around every Step. It returns the
// per-session results and checks every probe output against the real
// OnAccess of a fresh reference prefetcher fed the same accesses.
func probePass(tr *tracer, traces map[string][]trace.Record, ids []string, n int,
	probe func() *layerProbe, reference func() sim.Prefetcher) (map[string]sim.Result, *layerProbe, error) {
	out := make(map[string]sim.Result)
	var all *layerProbe
	cfg := sim.DefaultConfig()
	var accID int64
	for _, id := range ids {
		p := probe()
		p.tr = tr
		s := sim.NewSim(p, cfg)
		for _, r := range traces[id][:n] {
			p.id = accID
			p.step = tr.begin("sim.step", -1, accID)
			s.Step(r)
			tr.end(p.step)
			accID++
		}
		out[id] = s.Result()
		ref := reference()
		for i, a := range p.seen {
			want := ref.OnAccess(a)
			if !slices.Equal(want, p.outs[i]) {
				return nil, nil, fmt.Errorf("layer probe differs from %s.OnAccess at access %d of %s: %v vs %v",
					ref.Name(), i, id, p.outs[i], want)
			}
		}
		if all == nil {
			all = p
		} else {
			all.inputs = append(all.inputs, p.inputs...)
		}
	}
	return out, all, nil
}

// enginePass calls Engine.Access in-process for the first n records of each
// session, an engine.access span around each call, and returns each
// session's closed result.
func enginePass(tr *tracer, e *serve.Engine, w workload, traces map[string][]trace.Record, ids []string, n int) (map[string]sim.Result, error) {
	out := make(map[string]sim.Result)
	var accID int64
	for _, id := range ids {
		sid := "iso-" + id
		if err := e.OpenSession(sid, w.sessionOptions()); err != nil {
			return nil, err
		}
		for _, r := range traces[id][:n] {
			sp := tr.begin("engine.access", -1, accID)
			_, err := e.Access(sid, r)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			accID++
		}
		res, err := e.Close(sid)
		if err != nil {
			return nil, err
		}
		out[id] = res
	}
	return out, nil
}

// frameSource cycles through the sessions' traces in frame-sized chunks.
type frameSource struct {
	traces [][]trace.Record
	frame  int
	k      int
}

func (f *frameSource) next() []trace.Record {
	recs := f.traces[f.k%len(f.traces)]
	per := len(recs) / f.frame
	i := (f.k / len(f.traces)) % per
	f.k++
	return recs[i*f.frame : (i+1)*f.frame]
}

// transport is what the transport probes measured, per frame of the
// workload's records on a session of the probe class.
type transport struct {
	directUs, simUs, routerUs, frontUs float64
	heapPerAcc                         float64
	codecNs                            float64
}

// transportPass times the workload's frames on sessions of the probe class,
// which does no prefetching, so the simulator's share is small and measured
// here too. It records a span around each frame sent by a direct binary
// client to one backend, each in-process Router.Access, and each frame sent
// through the router's front end. The rule-based workload reuses its own
// router; the model workloads, which bypass routing, get one over their
// backend for the measurement.
func transportPass(tr *tracer, sys *system, src *frameSource, frames int) (transport, error) {
	var t transport
	opt := serve.SessionOptions{Prefetcher: probeClass, Degree: degree}
	frame := src.frame

	// Codec: encode and decode each frame, no wire.
	var buf []byte
	var recs []trace.Record
	br := &byteReader{}
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		f := src.next()
		buf = serve.AppendAccessRequest(buf[:0], uint64(i), "codec", f)
		br.reset(buf)
		kind, p, err := br.fr.Next()
		if err != nil {
			return t, fmt.Errorf("codec: %w", err)
		}
		if _, _, recs, err = serve.DecodeAccessRequest(kind, p, recs[:0]); err != nil {
			return t, fmt.Errorf("codec: %w", err)
		}
		if !slices.Equal(recs, f) {
			return t, fmt.Errorf("codec: decoded frame differs from the encoded one")
		}
	}
	t.codecNs = float64(time.Since(t0).Nanoseconds()) / float64(frames*frame)

	// Simulation alone, for the same frames.
	s := sim.NewSim(sim.NoPrefetcher{}, sim.DefaultConfig())
	t0 = time.Now()
	for i := 0; i < frames; i++ {
		for _, r := range src.next() {
			s.Step(r)
		}
	}
	t.simUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(frames)

	direct, err := dial(sys.backends[0].addr, frame)
	if err != nil {
		return t, err
	}
	defer direct.Close()
	if err := clientFrames(tr, "serve.direct_frame", direct, "wire-probe", opt, src, frames); err != nil {
		return t, err
	}

	front := sys.front
	if front == nil {
		if front, err = startFrontEnd(sys.backends); err != nil {
			return t, err
		}
		defer front.stop()
	}
	if err := front.router.Open("route-probe", opt); err != nil {
		return t, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < frames; i++ {
		f := src.next()
		sp := tr.begin("route.access", -1, int64(i))
		_, err := front.router.Access("route-probe", f)
		tr.end(sp)
		if err != nil {
			return t, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	t.heapPerAcc = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(frames*frame)
	if _, err := front.router.CloseSession("route-probe"); err != nil {
		return t, err
	}

	fc, err := dial(front.addr, frame)
	if err != nil {
		return t, err
	}
	defer fc.Close()
	if err := clientFrames(tr, "route.front_frame", fc, "front-probe", opt, src, frames); err != nil {
		return t, err
	}
	agg := selfTimes(tr.spans)
	t.directUs = meanUs(agg["serve.direct_frame"])
	t.routerUs = meanUs(agg["route.access"])
	t.frontUs = meanUs(agg["route.front_frame"]) - t.routerUs
	return t, nil
}

// clientFrames opens a session over c, sends frames through it with a span
// around each, and closes it.
func clientFrames(tr *tracer, name string, c *serve.Client, id string, opt serve.SessionOptions, src *frameSource, frames int) error {
	if err := c.OpenSession(id, opt); err != nil {
		return err
	}
	for i := 0; i < frames; i++ {
		f := src.next()
		sp := tr.begin(name, -1, int64(i))
		_, err := c.AccessBatch(id, f)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	_, err := c.CloseSession(id)
	return err
}

// layerCost is one hierarchy layer's measured and modelled cost.
type layerCost struct {
	name          string
	us, allocs    float64
	cycles, bits  int
	measuredBytes int
	descr         string
}

// modelCosts times the hierarchy layer by layer on the inputs the probe
// built: span self time from the probe pass, allocations from a separate
// loop over the same inputs.
func modelCosts(h *tabular.Hierarchy, names []string, agg map[string]*spanTotal, inputs []*mat.Matrix) []layerCost {
	out := make([]layerCost, len(h.Layers))
	allocs := make([]uint64, len(h.Layers))
	for _, x := range inputs {
		for i, l := range h.Layers {
			a0 := mallocs()
			x = l.Query(x)
			allocs[i] += mallocs() - a0
		}
	}
	for i, l := range h.Layers {
		c := l.Cost()
		lc := layerCost{name: names[i], cycles: c.LatencyCycles, bits: c.StorageBits,
			measuredBytes: tabular.MeasuredStorageBytes(l), descr: l.Name()}
		if s := agg[names[i]]; s != nil && s.Count > 0 {
			lc.us = float64(s.SelfNs) / float64(s.Count) / 1e3
		}
		if len(inputs) > 0 {
			lc.allocs = float64(allocs[i]) / float64(len(inputs))
		}
		out[i] = lc
	}
	return out
}

// mallocs is the count of heap objects allocated so far. It stops the world,
// so it brackets calls only outside timed regions.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// perSample times fn over batches of inputs and returns µs per sample.
func perSample(inputs []*mat.Matrix, batch int, fn func(*mat.Tensor)) float64 {
	if len(inputs) == 0 {
		return 0
	}
	var total time.Duration
	samples := 0
	for lo := 0; lo+batch <= len(inputs) && samples < batchTimingSamples*batch; lo += batch {
		t := stack(inputs[lo : lo+batch])
		t0 := time.Now()
		fn(t)
		total += time.Since(t0)
		samples += batch
	}
	if samples == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(samples)
}

// stack copies samples into one batch tensor.
func stack(xs []*mat.Matrix) *mat.Tensor {
	t := mat.NewTensor(len(xs), xs[0].Rows, xs[0].Cols)
	for i, x := range xs {
		copy(t.Sample(i).Data, x.Data)
	}
	return t
}

// byteReader feeds one encoded frame to a FrameReader.
type byteReader struct {
	buf []byte
	off int
	fr  *serve.FrameReader
}

func (b *byteReader) Read(p []byte) (int, error) {
	if b.off >= len(b.buf) {
		return 0, io.EOF
	}
	n := copy(p, b.buf[b.off:])
	b.off += n
	return n, nil
}

func (b *byteReader) reset(buf []byte) {
	b.buf, b.off = buf, 0
	if b.fr == nil {
		b.fr = serve.NewFrameReader(bufio.NewReaderSize(b, 1<<16))
	}
}

// meanUs is a span aggregate's mean total duration in µs.
func meanUs(s *spanTotal) float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return float64(s.TotalNs) / float64(s.Count) / 1e3
}

// selfUs is a span aggregate's mean self time in µs.
func selfUs(s *spanTotal) float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return float64(s.SelfNs) / float64(s.Count) / 1e3
}

// runTraced is the per-layer run. It drives an untraced and a traced load
// phase of half the run each, so the gap between them is the tracing
// overhead, then replays the workload's records through each layer in
// isolation with spans around every call into it.
func runTraced(out io.Writer, sys *system, in inputs, traces map[string][]trace.Record, dur time.Duration) (result, error) {
	w := sys.w
	half := dur / 2
	pu, err := runPhase(sys, traces, half, false)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "phase untraced (%.1f s): ", half.Seconds())
	ok := pu.report(out)
	if err := sys.reopen(); err != nil {
		return result{}, err
	}
	pt, err := runPhase(sys, traces, half, true)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "phase traced (%.1f s): ", half.Seconds())
	ok = pt.report(out) && ok
	tu, tt := pu.throughput(), pt.throughput()
	fmt.Fprintf(out, "tracing overhead: throughput %.1f acc/s untraced, %.1f traced, gap %.2f%% (base: untraced)\n",
		tu, tt, 100*(1-tt/tu))
	frameAgg := selfTimes(pt.load.spans)["client.frame"]

	var batches, batched uint64
	maxBatch := 0
	for _, b := range sys.backends {
		st := b.engine.StatsSnapshot()
		batches += st.Batches
		batched += st.Batched
		maxBatch = max(maxBatch, st.MaxBatch)
	}
	batchMean := 0.0
	if batches > 0 {
		batchMean = float64(batched) / float64(batches)
	}

	ids := make([]string, 0, len(traces))
	for _, s := range in.sessions {
		ids = append(ids, s.id)
	}
	tr := newTracer(1 << 16)

	// The workload's own serving class, through the engine and then through
	// the probe, on the same records.
	own := sys.model
	n := modelPassAccesses
	if own == nil {
		n = rulePassAccesses
	}
	engRes, err := enginePass(tr, sys.backends[0].engine, w, traces, ids, n)
	if err != nil {
		return result{}, fmt.Errorf("engine pass: %w", err)
	}
	ownTr := newTracer(1 << 16)
	var ownProbe func() *layerProbe
	var ownRef func() sim.Prefetcher
	if own != nil {
		ownProbe, ownRef = own.probe, own.prefetcher
	} else {
		ref := sys.newPrefetcher()
		ownProbe = func() *layerProbe { return &layerProbe{rule: ref()} }
		ownRef = ref
	}
	probeRes, probe, err := probePass(ownTr, traces, ids, n, ownProbe, ownRef)
	if err != nil {
		return result{}, err
	}
	for _, id := range ids {
		if engRes[id] != probeRes[id] {
			ok = false
			fmt.Fprintf(out, "verify: FAIL %s: Engine.Access result differs from the layer probe's over %d accesses\n", id, n)
		}
	}
	ownAgg := selfTimes(ownTr.spans)

	// The model layers. The rule-based workload has none on its path; it
	// builds the float artifact here so tabular changes are measured next to
	// a workload they should not move.
	m := own
	modelAgg := ownAgg
	if m == nil {
		if m, err = buildModel(in.train, 64); err != nil {
			return result{}, err
		}
		modelTr := newTracer(1 << 16)
		if _, probe, err = probePass(modelTr, traces, ids, modelPassAccesses, m.probe, m.prefetcher); err != nil {
			return result{}, err
		}
		modelAgg = selfTimes(modelTr.spans)
	}
	t0 := time.Now()
	tabularize(m.art, m.fitInput, m.h.DataBits())
	tabS := time.Since(t0).Seconds()
	names := layerSpanNames(m.h)
	costs := modelCosts(m.h, names, modelAgg, probe.inputs)

	queryUs, queryAllocs := 0.0, 0.0
	for _, x := range probe.inputs {
		t0 := time.Now()
		m.h.Query(x)
		queryUs += float64(time.Since(t0).Nanoseconds()) / 1e3
		a0 := mallocs()
		m.h.Query(x)
		queryAllocs += float64(mallocs() - a0)
	}
	queryUs /= float64(len(probe.inputs))
	queryAllocs /= float64(len(probe.inputs))
	b := max(1, int(math.Round(batchMean)))
	batchUs := perSample(probe.inputs, b, func(t *mat.Tensor) { m.h.QueryBatch(t) }) * float64(b)
	test := m.art.Test.X
	testIn := make([]*mat.Matrix, min(test.N, 256))
	for i := range testIn {
		testIn[i] = test.Sample(i)
	}
	teacherUs := perSample(testIn, 64, func(t *mat.Tensor) { m.art.Teacher.Forward(t) })
	studentUs := perSample(testIn, 64, func(t *mat.Tensor) { m.art.Student.Forward(t) })

	// Transport: codec, direct wire, router hop and front end.
	var src [][]trace.Record
	for _, id := range ids {
		src = append(src, traces[id])
	}
	engineUs := meanUs(selfTimes(tr.spans)["engine.access"])
	tp, err := transportPass(newTracer(1<<12), sys, &frameSource{traces: src, frame: w.frame}, transportFrames)
	if err != nil {
		return result{}, fmt.Errorf("transport pass: %w", err)
	}
	// A step's time without the probe's own bookkeeping: the simulator,
	// the prefetcher and the model.
	steps := ownAgg["sim.step"]
	stepUs := float64(steps.TotalNs-ownAgg["probe.bookkeeping"].TotalNs) / float64(steps.Count) / 1e3
	var issued, accs int
	for _, r := range probeRes {
		issued += r.PrefetchIssued
		accs += r.Accesses
	}

	ms := newMetricSet()
	add := func(name string, v float64, unit string) {
		if err == nil {
			err = ms.add(name, v, unit)
		}
	}
	add("core.build_s", m.buildS, "s")
	add("tabular.tabularize_s", tabS, "s")
	add("nn.teacher_us", teacherUs, "us")
	add("nn.student_us", studentUs, "us")
	add("tabular.query_us", queryUs, "us")
	add("tabular.allocs_per_query", queryAllocs, "count")
	add("tabular.query_batch_us", batchUs, "us")
	for _, c := range costs {
		add(c.name+".us", c.us, "us")
		add(c.name+".allocs", c.allocs, "count")
		add(c.name+".cycles", float64(c.cycles), "cycles")
	}
	add("tabular.model_cycles", float64(m.latency), "cycles")
	add("tabular.modelled_bytes", float64(m.storage), "B")
	add("prefetch.build_input_ns", selfUs(modelAgg["prefetch.build_input"])*1e3, "ns")
	add("prefetch.apply_ns", selfUs(modelAgg["prefetch.apply"])*1e3, "ns")
	add("prefetch.issued_per_acc", float64(issued)/float64(accs), "count")
	add("sim.step_ns", selfUs(steps)*1e3, "ns")
	add("serve.engine_us_per_acc", engineUs, "us")
	add("serve.batch_mean", batchMean, "count")
	add("serve.batch_max", float64(maxBatch), "count")
	add("serve.overhead_us_per_acc", engineUs-stepUs, "us")
	add("serve.wire_us_per_frame", tp.directUs-tp.simUs, "us")
	add("serve.codec_ns_per_acc", tp.codecNs, "ns")
	add("client.gen_lag_p99_ms", pu.sum.GenLag.Value, "ms")
	add("route.access_us_per_frame", tp.routerUs, "us")
	add("route.front_us_per_frame", tp.frontUs, "us")
	add("route.heap_bytes_per_acc", tp.heapPerAcc, "B")
	add("runtime.allocs_per_acc", pu.rt.allocs/float64(max(pu.sum.Accesses, 1)), "count")
	add("runtime.gc_cpu_frac", pu.rt.gcFrac, "fraction")
	if err != nil {
		return result{}, err
	}

	printLedger(out, m, costs)
	fmt.Fprintf(out, "nn per sample: teacher %.1f us, student %.1f us; teacher/DART %.1fx, student/DART %.1fx (base: tabular.query_us %.1f us; paper: 170x, 9.4x)\n",
		teacherUs, studentUs, teacherUs/queryUs, studentUs/queryUs, queryUs)
	printBlockingPath(out, sys, frameAgg, ownAgg, engineUs, stepUs, tp)
	for _, name := range ms.order {
		v := ms.m[name]
		fmt.Fprintf(out, "  %-34s %16.4f %s\n", name, v.Value, v.Unit)
	}
	attempted := pu.sum.AccAttempted + pt.sum.AccAttempted
	failed := pu.verdict.failed + pt.verdict.failed
	return result{Correct: ok, Attempted: max(attempted, 1), Failed: failed, Metrics: ms.m}, nil
}

// printLedger prints each layer's measured cost next to its modelled cost
// (Layer.Cost, Sec. V-C), and the hierarchy's modelled against measured
// storage.
func printLedger(out io.Writer, m *model, costs []layerCost) {
	fmt.Fprintf(out, "cost ledger (measured vs modelled, %d-bit tables):\n", m.h.DataBits())
	fmt.Fprintf(out, "  %-26s %-26s %10s %8s %7s %12s %12s %9s\n",
		"layer", "kind", "us", "allocs", "cycles", "model bits", "meas. bytes", "us/cycle")
	var us float64
	cycles := 0
	for _, c := range costs {
		perCycle := math.NaN()
		if c.cycles > 0 {
			perCycle = c.us / float64(c.cycles)
		}
		fmt.Fprintf(out, "  %-26s %-26s %10.2f %8.1f %7d %12d %12d %9.3f\n",
			c.name, c.descr, c.us, c.allocs, c.cycles, c.bits, c.measuredBytes, perCycle)
		us += c.us
		cycles += c.cycles
	}
	fmt.Fprintf(out, "  %-53s %10.2f %8s %7d  (configurator latency %d cycles)\n", "sum", us, "", cycles, m.latency)
	// Rank layers by measured time and by modelled cycles, to show where the
	// model misorders them.
	byUs := append([]layerCost(nil), costs...)
	sort.SliceStable(byUs, func(i, j int) bool { return byUs[i].us > byUs[j].us })
	fmt.Fprintf(out, "  slowest measured: %s %.1f us (%d cycles); fastest: %s %.1f us (%d cycles)\n",
		byUs[0].name, byUs[0].us, byUs[0].cycles, byUs[len(byUs)-1].name, byUs[len(byUs)-1].us, byUs[len(byUs)-1].cycles)
	meas := m.h.MeasuredStorageBytes()
	fmt.Fprintf(out, "  storage: configurator Candidate.StorageBytes %d B, measured %d B (%+.1f%%)\n",
		m.storage, meas, 100*(float64(meas)/float64(m.storage)-1))
}

// printBlockingPath splits one access's end-to-end time, as a traced client
// frame saw it, into the per-layer times measured in isolation, and reports
// what they leave unattributed: contention between the two connections,
// batching waits, and scheduling.
func printBlockingPath(out io.Writer, sys *system, frameAgg *spanTotal, ownAgg map[string]*spanTotal,
	engineUs, stepUs float64, tp transport) {
	w := sys.w
	e2e := meanUs(frameAgg) / float64(w.frame)
	type part struct {
		name string
		us   float64
	}
	parts := []part{{"sim.step (self)", selfUs(ownAgg["sim.step"])}}
	stepOf := func(name string) float64 {
		s := ownAgg[name]
		if s == nil {
			return 0
		}
		// per step, not per call: the model runs once history is full
		return float64(s.SelfNs) / float64(ownAgg["sim.step"].Count) / 1e3
	}
	if sys.model == nil {
		parts = append(parts, part{"prefetch.on_access", stepOf("prefetch.on_access")})
	} else {
		parts = append(parts, part{"prefetch.build_input", stepOf("prefetch.build_input")})
		for _, n := range layerSpanNames(sys.model.h) {
			parts = append(parts, part{n, stepOf(n)})
		}
		parts = append(parts, part{"prefetch.apply", stepOf("prefetch.apply")})
	}
	if sys.model != nil {
		// Each model query is handed to the admission batcher and back,
		// which Engine.Access pays and a bare sim.Step does not. Rule-based
		// sessions run a whole frame as one actor job, so there the
		// per-access Engine.Access handoff is off the frame path.
		parts = append(parts, part{"serve overhead (engine - step)", engineUs - stepUs})
	}
	if w.routed {
		parts = append(parts, part{"front end + router + wire", (tp.frontUs + tp.routerUs - tp.simUs) / float64(w.frame)})
	} else {
		parts = append(parts, part{"wire + codec + actor", (tp.directUs - tp.simUs) / float64(w.frame)})
	}
	fmt.Fprintf(out, "blocking path per access (%s, one stream of %d): end to end %.3f us from %d traced frames\n",
		w.name, len(sys.conns), e2e, frameAgg.Count)
	sum := 0.0
	for _, p := range parts {
		sum += p.us
		fmt.Fprintf(out, "  %-32s %10.3f us %6.1f%%\n", p.name, p.us, 100*p.us/e2e)
	}
	fmt.Fprintf(out, "  %-32s %10.3f us %6.1f%%\n", "unattributed", e2e-sum, 100*(e2e-sum)/e2e)
}

// Command dartbench is the repository's end-to-end benchmark of the DART
// serving path. One process builds the program, serves it on loopback and
// drives it with binary-protocol clients; see README.md for the workloads,
// the metrics and how to run it.
//
//	go run . --workload dart-closed --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is nonzero when a
// session is not bit-identical to the offline simulator, when the backends
// did not admit exactly the accesses sent, or when a call failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"

	"dart/internal/prefetch"
	"dart/internal/sim"
	"dart/internal/trace"
)

// defaultSeed is the seed runs use unless told otherwise; README.md names
// the held-out one.
const defaultSeed = 1

// workload is one named traffic mix.
type workload struct {
	name    string
	bits    int           // table entry width: 64 float, 8 int8; 0 = no model (stride)
	routed  bool          // traffic goes through route.Server and a Router over 3 backends
	frame   int           // accesses per client frame
	slo     time.Duration // frame latency limit for slo_met_frac
	evalLen int           // records per application in the quality evaluation set
	maxRate float64       // accesses/s the traces are sized for
	replay  int           // records per session trace, replayed on a fresh session at its end; 0 = sized to last the run
	setups  int           // set-ups per run; setup_s is their median
}

// workloads are the benchmark's traffic mixes, in BENCHMARK.json's order.
var workloads = []workload{
	{name: "dart-closed", bits: 64, frame: 64, slo: 250 * time.Millisecond,
		evalLen: 1024, maxRate: 8000, setups: 3},
	{name: "dart-i8-closed", bits: 8, frame: 64, slo: 250 * time.Millisecond,
		evalLen: 1024, maxRate: 8000, setups: 3},
	{name: "stride-routed", routed: true, frame: 64, slo: 2 * time.Millisecond,
		evalLen: 32768, maxRate: 2e6, replay: 65536, setups: 31},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// traceLen is the records each session's trace needs to last the run.
func (w workload) traceLen(seconds float64) int {
	if w.replay > 0 {
		return w.replay
	}
	n := int(w.maxRate*seconds/float64(len(trace.Apps()))*1.25) + w.frame
	return n - n%w.frame
}

// newPrefetcher returns a builder of the offline twin of a served session.
func (sys *system) newPrefetcher() func() sim.Prefetcher {
	if sys.model != nil {
		return sys.model.prefetcher
	}
	reg := prefetch.NewRegistry()
	return func() sim.Prefetcher {
		pf, err := reg.New("stride", degree)
		if err != nil {
			panic(err) // the built-in registry always has stride
		}
		return pf
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("dartbench", flag.ContinueOnError)
	name := fs.String("workload", "dart-closed", "workload to run")
	seed := fs.Int64("seed", defaultSeed, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 10, "seconds of load per phase")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "dartbench: need --workload one of dart-closed, dart-i8-closed, stride-routed, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	fmt.Fprintf(out, "dartbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d %s, load from %d client goroutines on %d connections\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), connections, connections)

	in := makeInputs(w, *seed, float64(*seconds))
	fmt.Fprintf(out, "inputs: %d sessions x %d records, %d training records, fnv64 %016x\n",
		len(in.sessions), len(in.sessions[0].recs), len(in.train), in.hash)

	sys, setupCPU, setupWall, err := setUpRepeatedly(w, in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dartbench: set-up: %v\n", err)
		return 1
	}
	defer sys.close()
	setupS := median(append([]float64(nil), setupCPU...))
	fmt.Fprintf(out, "setup: median %.4f CPU-s over %d set-ups %.3f; wall %.3f s\n", setupS, len(setupCPU), setupCPU, setupWall)
	if m := sys.model; m != nil {
		c := m.art.Chosen
		fmt.Fprintf(out, "model: K=%d C=%d bits=%d, %d modelled cycles, modelled %d B, measured %d B, test F1 %.4f\n",
			c.Table.K, c.Table.C, m.h.DataBits(), m.latency, m.storage, m.h.MeasuredStorageBytes(), m.art.F1DART)
	}

	traces := make(map[string][]trace.Record, len(in.sessions))
	for _, s := range in.sessions {
		traces[s.id] = s.recs
	}
	dur := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res, err = runTraced(out, sys, in, traces, dur)
	} else {
		res, err = runUntraced(out, sys, in, traces, dur, setupS)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dartbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dartbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setUpRepeatedly sets the program up w.setups times, keeping the last
// instance and closing the others, and requires every build of the model
// from the same seed to come out identical. It returns each set-up's process
// CPU time and wall time, in seconds.
func setUpRepeatedly(w workload, in inputs) (sys *system, cpu, wall []float64, err error) {
	for i := 0; i < w.setups; i++ {
		// Collect the previous set-up's garbage first, so no set-up pays
		// for another's.
		runtime.GC()
		c0, t0 := processCPU(), time.Now()
		s, err := setUp(w, in)
		if err != nil {
			if sys != nil {
				sys.close()
			}
			return nil, nil, nil, err
		}
		cpu = append(cpu, (processCPU() - c0).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
		if sys != nil {
			same := sys.model == nil || (sys.model.art.F1DART == s.model.art.F1DART &&
				sys.model.h.MeasuredStorageBytes() == s.model.h.MeasuredStorageBytes())
			sys.close()
			if !same {
				s.close()
				return nil, nil, nil, fmt.Errorf("two builds from the same training seed produced different models")
			}
		}
		sys = s
	}
	return sys, cpu, wall, nil
}

// phase is one verified load phase.
type phase struct {
	dur     time.Duration
	load    loadResult
	sum     frameSummary
	verdict verdict
	rt      runtimeDelta
	cpu     time.Duration // process CPU time over the load
}

// rateWindow is the window throughput is measured over; see windowRate.
const rateWindow = time.Second

// throughput is the median over one-second windows of accesses answered per
// second.
func (p phase) throughput() float64 {
	return windowRate(p.load.frames, p.dur, rateWindow)
}

// runPhase drives one load phase on freshly opened sessions, closes them and
// verifies every session against the offline simulator.
func runPhase(sys *system, traces map[string][]trace.Record, dur time.Duration, traced bool) (phase, error) {
	p := phase{dur: dur}
	// Set-up and earlier phases leave garbage behind; collect it before the
	// clock starts so the phase pays only for its own.
	runtime.GC()
	acc0 := sys.accepted()
	rt0, cpu0 := readRuntime(), processCPU()
	p.load = runLoad(sys, dur, traced)
	p.rt, p.cpu = readRuntime().since(rt0), processCPU()-cpu0
	served, err := sys.closeSessions()
	if err != nil {
		return p, err
	}
	failedAcc := 0
	for _, f := range p.load.frames {
		if !f.ok {
			failedAcc += f.n
		}
	}
	p.verdict = verify(traces, served, sys.accepted()-acc0, failedAcc, sys.newPrefetcher())
	for _, e := range p.load.errs {
		p.verdict.problems = append(p.verdict.problems, e.Error())
	}
	p.sum, err = summarize(p.load.frames, sys.w.slo)
	if err != nil {
		p.verdict.problems = append(p.verdict.problems, err.Error())
	}
	return p, nil
}

// report prints a phase's correctness outcome and returns whether it passed.
func (p phase) report(out io.Writer) bool {
	ok := len(p.verdict.problems) == 0
	identical := 0
	for _, c := range p.verdict.checks {
		if c.identical {
			identical++
		}
	}
	fmt.Fprintf(out, "verify: %d/%d sessions bit-identical to offline sim.Run, %d accesses failed of %d attempted\n",
		identical, len(p.verdict.checks), p.verdict.failed, p.sum.AccAttempted)
	for _, pr := range p.verdict.problems {
		fmt.Fprintf(out, "verify: FAIL %s\n", pr)
	}
	return ok
}

// runUntraced is the end-to-end run: one load phase with no tracing.
func runUntraced(out io.Writer, sys *system, in inputs, traces map[string][]trace.Record, dur time.Duration, setupS float64) (result, error) {
	w := sys.w
	p, err := runPhase(sys, traces, dur, false)
	if err != nil {
		return result{}, err
	}
	ok := p.report(out)
	q := evalQuality(in.eval, sys.newPrefetcher())
	attempted := max(p.sum.AccAttempted, 1)
	ms := newMetricSet()
	fmt.Fprintf(out, "load: closed loop, %d-access frames, %d frames sent, %d answered in %.3f s; SLO %v\n",
		w.frame, p.sum.Frames, p.sum.OK, p.load.elapsed.Seconds(), w.slo)
	tableBytes := float64(sys.newPrefetcher()().StorageBytes())
	if sys.model != nil {
		tableBytes = float64(sys.model.h.MeasuredStorageBytes())
	}
	adds := []struct {
		name  string
		value float64
		unit  string
		note  string
	}{
		{"cpu_us_per_acc", float64(p.cpu.Microseconds()) / float64(max(p.sum.Accesses, 1)), "us", fmt.Sprintf("%.3f CPU-s over %.3f s", p.cpu.Seconds(), p.load.elapsed.Seconds())},
		{"slo_met_frac", p.sum.SLOMet, "fraction", fmt.Sprintf("limit %v, %d frames", w.slo, p.sum.Frames)},
		{"ok_frac", 1 - float64(p.verdict.failed)/float64(attempted), "fraction", fmt.Sprintf("failed_frac %.6f", float64(p.verdict.failed)/float64(attempted))},
		{"setup_s", setupS, "s", fmt.Sprintf("process CPU time, median of %d set-ups", w.setups)},
		{"peak_rss_mb", float64(p.load.peakRSS) / (1 << 20), "MB", fmt.Sprintf("sampled every %v under load; whole-process getrusage max %.1f MB", memSampleEvery, peakRSSMB())},
		{"accuracy", q.accuracy, "fraction", fmt.Sprintf("evaluation set, %d x %d accesses", len(in.eval), w.evalLen)},
		{"coverage", q.coverage, "fraction", "vs no-prefetch sim.Run"},
		{"ipc_gain", q.ipcGain, "fraction", "vs no-prefetch sim.Run"},
		{"f1", q.f1, "fraction", "harmonic mean of accuracy and coverage"},
		{"table_bytes", tableBytes, "B", "measured storage"},
	}
	fmt.Fprintf(out, "wall clock (not bounded; see README):\n")
	fmt.Fprintf(out, "  %-18s %16.6f %-8s median of %d 1-s windows; %d accesses in %.3f s\n",
		"throughput_acc_s", p.throughput(), "acc/s", int(p.dur/rateWindow), p.sum.Accesses, p.load.elapsed.Seconds())
	for _, q := range []struct {
		name string
		q    quantile
	}{{"frame_p50_ms", p.sum.P50}, {"frame_p95_ms", p.sum.P95}, {fmt.Sprintf("frame_p%.2f_ms", p.sum.Tail.Pct), p.sum.Tail}} {
		fmt.Fprintf(out, "  %-18s %16.6f %-8s n=%d\n", q.name, q.q.Value, "ms", q.q.N)
	}
	fmt.Fprintf(out, "  (the tail is the highest percentile up to p99 with %d samples beyond it)\n", minBeyond)
	fmt.Fprintf(out, "generator lag: p%.2f %.4f ms over %d frames (reported as client.gen_lag_p99_ms in the traced run)\n",
		p.sum.GenLag.Pct, p.sum.GenLag.Value, p.sum.GenLag.N)
	fmt.Fprintf(out, "bounded:\n")
	for _, a := range adds {
		if err := ms.add(a.name, a.value, a.unit); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "  %-18s %16.6f %-8s %s\n", a.name, a.value, a.unit, a.note)
	}
	return result{Correct: ok, Attempted: attempted, Failed: p.verdict.failed, Metrics: ms.m}, nil
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

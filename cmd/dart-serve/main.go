// Command dart-serve runs the online multi-session prefetch serving engine:
// a long-running daemon that multiplexes many access streams through the
// batched DART inference kernels, speaking line-delimited JSON over TCP or a
// unix socket (see internal/serve/README.md for the protocol).
//
// Serve mode:
//
//	dart-serve -listen :7381                # TCP
//	dart-serve -unix /tmp/dart.sock         # unix socket
//	dart-serve -listen :7381 -pretrain -app 462.libquantum
//
// With -pretrain the daemon first trains and tabularizes a static DART model
// on the named application's trace, then serves the "dart" prefetcher
// alongside the rule-based ones; sessions share the fixed table hierarchy
// while the admission layer coalesces their queries into batched lookups.
//
// With -online the daemon additionally runs the continual-learning loop of
// internal/online: sessions opened with prefetcher "online" are served by a
// neural model that is fine-tuned in the background from their prefetch-
// outcome feedback and hot-swapped between inference batches. -checkpoint-dir
// makes published versions durable (and recovers the newest good one on
// restart); -swap-interval sets the auto-publish cadence. The wire protocol
// gains model/swap/rollback/classes verbs (see internal/online/README.md).
//
// With -student (implies -online) the daemon also runs the distilled-student
// tier: a compact student (nn.StudentConfig of the teacher architecture) is
// continually distilled from the published teacher with the paper's KD loss
// (Eqs. 24-25) and published as the "student" model class; sessions opened
// with prefetcher "student" are served by it — lower modelled latency and
// storage — with teacher fallback, and -distill-interval sets its publish
// cadence. -ab enables shadow-compare mode: student batches are also run
// through the teacher and the per-label agreement is reported (the "ab"
// section of stats, and the replay report).
//
// With -dart (implies -student and -online) the daemon runs the full
// teach→distill→tabularize→serve pipeline live: a duty-cycled tabularizer
// periodically re-tabularizes the published student and publishes the table
// hierarchy as the versioned "dart" class — the paper's actual deployment
// artifact — which sessions opened with prefetcher "dart" are served from,
// hot-swapped between batches with student fallback until the first table
// exists. -tabularize-interval sets the re-tabularize cadence, and dart
// checkpoints ("dart-*.dart" table files) recover across restarts beside
// the model classes'. Per-session class selection is just the prefetcher
// name at open: teacher ("online"), "student", or "dart" per tenant.
//
// With -policy (or any -policy-spec) every student/dart publish is gated by
// the promotion policy engine: a candidate must sustain the configured
// agreement with its source class over a window of shadow batches before it
// is admitted, a published version whose live agreement degrades past the
// divergence threshold is auto-rolled-back, and every decision — admit,
// hold, rollback, skip, with its evidence — is kept in a bounded log served
// by the `policy` wire verb. A budgeted -policy-spec additionally drives the
// student architecture and the tabularization kernel through the
// config.Configure latency-major search instead of the fixed defaults, e.g.:
//
//	dart-serve -dart -policy-spec 'admit=0.7,window=4,diverge=0.5,windows=3,kernel=lsh,k=8,c=1'
//
// Replay mode pumps synthetic workloads through the engine at a target rate
// and reports accuracy, coverage, throughput, and request-latency
// percentiles — the continuous-load evaluation the offline cmd/dart-sim
// cannot do:
//
//	dart-serve -replay -sessions 8 -n 20000 -prefetcher stride -verify
//	dart-serve -replay -sessions 16 -qps 50000 -prefetcher dart -pretrain
//	dart-serve -replay -online -prefetcher online -soak 60s
//	dart-serve -replay -dart -prefetcher dart -soak 60s
//
// -soak repeats replay rounds until the duration elapses (fresh session ids
// per round), the nightly-CI endurance mode. With a versioned-class
// prefetcher (online, student, or dart with the dart tier on) the
// bit-identity check is replaced by a completeness check — the model changes
// under training by design, but zero accesses may be dropped or reordered.
//
// Matrix mode replays a mixed-tenant scenario matrix: each tenant names a
// workload-zoo scenario (pointer chase, graph walk, zipfian key-value,
// phase-shift adversary, or any benchmark app), a serving class, a session
// count, a QPS budget, a fair-share admission weight, and optionally its own
// cache hierarchy (cache=twolevel puts a private L2 in front of the LLC):
//
//	dart-serve -matrix -dart
//	dart-serve -matrix -dart -soak 60s -matrix-spec \
//	  'hot:workload=zipf,sessions=8,class=dart,weight=3;cold:workload=chase,class=online'
//
// Every round enforces per-tenant completeness and reports per-tenant
// metrics, latency percentiles, and fair-share admission stats (queries,
// starved batches, max wait).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"dart/internal/config"
	"dart/internal/core"
	"dart/internal/dataprep"
	"dart/internal/kd"
	"dart/internal/nn"
	"dart/internal/online"
	"dart/internal/serve"
	"dart/internal/tabular"
	"dart/internal/trace"
)

func main() {
	listen := flag.String("listen", "", "TCP listen address, e.g. :7381")
	unixSock := flag.String("unix", "", "unix socket path (alternative to -listen)")
	pretrain := flag.Bool("pretrain", false, "train+tabularize a static DART model so sessions can open prefetcher \"dart\" without the versioned tier")
	app := flag.String("app", "462.libquantum", "application trace used to pretrain the DART model (suffix match)")
	trainN := flag.Int("train-n", 12000, "accesses in the DART training trace")
	queueDepth := flag.Int("queue", 64, "per-session inbox depth (backpressure bound)")
	maxBatch := flag.Int("max-batch", 64, "admission batcher coalescing cap")

	useOnline := flag.Bool("online", false, "run the continual-learning loop; sessions can open prefetcher \"online\"")
	ckptDir := flag.String("checkpoint-dir", "", "online: directory for versioned model checkpoints (recovered on restart)")
	swapInterval := flag.Duration("swap-interval", 30*time.Second, "online: auto-publish cadence (<0 disables; \"swap\" verb always works)")

	useStudent := flag.Bool("student", false, "run the distilled-student tier (implies -online); sessions can open prefetcher \"student\"")
	distillInterval := flag.Duration("distill-interval", 30*time.Second, "student: auto-publish cadence (<0 disables; \"swap\" with class \"student\" always works)")
	shadowCompare := flag.Bool("ab", false, "student: A/B shadow-compare mode — run student batches through the teacher too and report per-label agreement")

	useDart := flag.Bool("dart", false, "run the versioned tabular serving class (implies -student): re-tabularize the published student on a duty cycle and hot-swap table hierarchies; sessions can open prefetcher \"dart\"")
	tabularizeInterval := flag.Duration("tabularize-interval", 30*time.Second, "dart: auto re-tabularize cadence (<0 disables; \"swap\" with class \"dart\" always works)")

	usePolicy := flag.Bool("policy", false, "gate student/dart publishes through the promotion policy engine: candidates must sustain agreement with their source class, live divergence auto-rolls-back, every decision lands in the `policy` verb log")
	policySpec := flag.String("policy-spec", "", "promotion policy spec, key=value comma-separated (implies -policy): admit= window= diverge= windows= live= delta= log= student-latency= student-storage= dart-latency= dart-storage= kernel= k= c=")

	matrix := flag.Bool("matrix", false, "replay a mixed-tenant scenario matrix through the engine and exit")
	matrixSpec := flag.String("matrix-spec", "", "matrix: tenant spec — name:key=value,...;name:... (default: built-in 4-tenant workload-zoo matrix)")

	replay := flag.Bool("replay", false, "replay synthetic workloads through the engine and exit")
	sessions := flag.Int("sessions", 8, "replay: concurrent sessions")
	n := flag.Int("n", 20000, "replay: accesses per session")
	prefetcher := flag.String("prefetcher", "stride", "replay: prefetcher every session opens (none|bo|isb|stride|dart|online|student)")
	degree := flag.Int("degree", 4, "replay: prefetch degree")
	qps := flag.Float64("qps", 0, "replay: aggregate target accesses/sec (0 = unthrottled)")
	proto := flag.String("proto", "direct", "replay/matrix: transport — direct (in-process), json, or binary (DARTWIRE1 over loopback TCP)")
	batch := flag.Int("batch", 64, "replay/matrix: accesses per wire frame / pipelined burst (wire protocols only)")
	verify := flag.Bool("verify", true, "replay: require bit-identity with the offline simulator")
	soak := flag.Duration("soak", 0, "replay: repeat rounds until this much wall time has elapsed")
	jsonOut := flag.String("json", "", "replay: also write the report as JSON to this file")
	flag.Parse()

	cfg := serve.Config{QueueDepth: *queueDepth, MaxBatch: *maxBatch}
	var art *core.Artifacts
	// -prefetcher dart without the versioned tier falls back to the static
	// pretrained table, the pre-dart-class behaviour.
	if *pretrain || (*prefetcher == "dart" && !*useDart) {
		spec, ok := trace.AppByName(*app)
		if !ok {
			fatalf("unknown application %q", *app)
		}
		fmt.Printf("training DART on %s (%d accesses)...\n", spec.Name, *trainN)
		var err error
		kdc := kd.DefaultConfig()
		kdc.Epochs = 6
		art, err = core.BuildDART(trace.Generate(spec, *trainN), core.Options{
			Constraints:   config.Constraints{LatencyCycles: 100, StorageBytes: 1 << 20},
			TeacherEpochs: 6,
			KD:            kdc,
			FineTune:      true,
			Seed:          1,
		})
		if err != nil {
			fatalf("training failed: %v", err)
		}
		cfg.Model = art.Tables.Hierarchy
		cfg.Data = art.Opt.Data
		cfg.ModelLatency = art.Chosen.Latency
		cfg.ModelStorage = art.Chosen.StorageBytes
		fmt.Printf("model ready: F1 %.3f, latency %d cycles, storage %d B\n",
			art.F1DART, art.Chosen.Latency, art.Chosen.StorageBytes)
	}

	var learner *online.Learner
	if *useDart {
		*useStudent = true // the tabularizer re-tabularizes the student
	}
	if *useStudent || *prefetcher == "student" {
		*useOnline = true // the distiller needs the teacher loop
	}
	if *policySpec != "" {
		*usePolicy = true
	}
	if *useOnline || *prefetcher == "online" {
		var err error
		learner, err = buildLearner(art, *ckptDir, *swapInterval,
			*useStudent || *prefetcher == "student", *distillInterval,
			*useDart, *tabularizeInterval, *usePolicy, *policySpec)
		if err != nil {
			fatalf("online learner: %v", err)
		}
		for _, skip := range learner.Store().Skipped {
			fmt.Printf("checkpoint skipped: %s\n", skip)
		}
		fmt.Printf("online learner ready: serving v%d (checkpoints: %s, swap interval %v)\n",
			learner.Serving().Version, orNone(*ckptDir), *swapInterval)
		if learner.HasStudent() {
			for _, skip := range learner.StudentStore().Skipped {
				fmt.Printf("student checkpoint skipped: %s\n", skip)
			}
			fmt.Printf("student tier ready: serving student v%d (distill interval %v, A/B %v)\n",
				learner.StudentServing().Version, *distillInterval, *shadowCompare)
		}
		if learner.HasDart() {
			for _, skip := range learner.DartStore().Skipped {
				fmt.Printf("dart checkpoint skipped: %s\n", skip)
			}
			if tab := learner.DartServing(); tab != nil {
				fmt.Printf("dart tier ready: serving table v%d (tabularize interval %v)\n",
					tab.Version, *tabularizeInterval)
			} else {
				fmt.Printf("dart tier ready: student fallback until the first tabularization (interval %v)\n",
					*tabularizeInterval)
			}
		}
		if pol := learner.Policy(); pol != nil {
			pc := pol.Config()
			fmt.Printf("promotion policy on: admit >= %.2f over %d shadow batches, rollback < %.2f for %d windows of %d labels\n",
				pc.AdmitThreshold, pc.AdmitWindow, pc.DivergeThreshold, pc.DivergeWindows, pc.LiveWindow)
		}
		learner.Start()
		defer learner.Stop()
		cfg.Online = learner
		cfg.ShadowCompare = *shadowCompare
	}

	engine := serve.NewEngine(cfg)
	if *matrix {
		if *matrixSpec == "" && !*useDart {
			fatalf("matrix: the built-in matrix spans the online/student/dart serving classes; run with -dart, or pass -matrix-spec using classical classes only")
		}
		runMatrix(serve.ReplaySpec{
			Engine: engine,
			Proto:  *proto,
			Batch:  *batch,
		}, *matrixSpec, *soak, *jsonOut)
		if learner != nil {
			printLearner(learner)
		}
		return
	}
	if *replay {
		runReplay(serve.ReplaySpec{
			Engine:     engine,
			Prefetcher: *prefetcher,
			Degree:     *degree,
			QPS:        *qps,
			Verify:     *verify,
			Proto:      *proto,
			Batch:      *batch,
		}, learner, *sessions, *n, *soak, *jsonOut)
		return
	}

	var ln net.Listener
	var err error
	switch {
	case *unixSock != "":
		os.Remove(*unixSock)
		ln, err = net.Listen("unix", *unixSock)
	case *listen != "":
		ln, err = net.Listen("tcp", *listen)
	default:
		fatalf("need -listen, -unix, or -replay")
	}
	if err != nil {
		fatalf("listen: %v", err)
	}

	srv := serve.NewServer(engine)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		s := <-sig
		fmt.Printf("\n%v: draining...\n", s)
		results := srv.Shutdown()
		for id, res := range results {
			fmt.Printf("  %-12s accesses %d  IPC %.3f  accuracy %.1f%%\n",
				id, res.Accesses, res.IPC, res.Accuracy()*100)
		}
		if learner != nil {
			printLearner(learner)
		}
	}()
	extras := ""
	if cfg.Model != nil || (learner != nil && learner.HasDart()) {
		extras += " dart"
	}
	if learner != nil {
		extras += " online"
		if learner.HasStudent() {
			extras += " student"
		}
	}
	fmt.Printf("dart-serve listening on %s (prefetchers: none bo isb stride%s)\n", ln.Addr(), extras)
	if err := srv.Serve(ln); err != nil {
		fatalf("serve: %v", err)
	}
	// Serve returns as soon as the listener closes; the drain (and its
	// result printout) is still in flight on the signal goroutine.
	<-drained
}

// buildLearner wires the continual-learning subsystem: the architecture is
// the DART student shape, warm-started from the trained student when the
// static model was pretrained, random otherwise; a checkpoint in dir always
// wins (recovery). With student set, the distilled-student tier is enabled
// on a compact architecture — by default nn.StudentConfig's halving of the
// teacher's, but a budgeted policy spec replaces that with a config.Configure
// latency-major search under the spec's constraints — its latency and
// storage modelled with the same systolic-array complexity model; with dart
// set, the duty-cycled tabularizer additionally publishes the student's
// table hierarchy as the versioned "dart" class, on the kernel the spec (or
// the configurator's chosen candidate) selects. With gate set, the
// promotion policy engine gates every student/dart publish.
func buildLearner(art *core.Artifacts, dir string, swapInterval time.Duration, student bool, distillInterval time.Duration, dart bool, tabularizeInterval time.Duration, gate bool, specStr string) (*online.Learner, error) {
	spec, err := config.ParsePolicySpec(specStr)
	if err != nil {
		return nil, err
	}
	data := dataprep.Default()
	tcfg := nn.TransformerConfig{
		T: data.History, DIn: data.InputDim(),
		DModel: 32, DFF: 64, DOut: data.OutputDim(), Heads: 2, Layers: 1,
	}
	var warm nn.Layer
	latency, storage := 40, 1<<16
	if art != nil {
		data = art.Opt.Data
		tcfg = nn.TransformerConfig{
			T: data.History, DIn: data.InputDim(),
			DModel: art.Chosen.Model.DA, DFF: art.Chosen.Model.DF,
			DOut: data.OutputDim(), Heads: art.Chosen.Model.H, Layers: art.Chosen.Model.L,
		}
		warm = art.Student
		latency = config.NNLatency(art.Chosen.Model)
		storage = config.NNStorageBits(art.Chosen.Model, 32) / 8
	}
	cfg := online.Config{
		Data: data,
		New: func() nn.Layer {
			return nn.NewTransformerPredictor(tcfg, rand.New(rand.NewSource(7)))
		},
		Init:         warm,
		Dir:          dir,
		SwapInterval: swapInterval,
		Latency:      latency,
		StorageBytes: storage,
		Seed:         7,
	}
	// A budgeted spec replaces the fixed nn.StudentConfig halving: the
	// configurator searches the default design space under the budget and
	// its chosen candidate pins both the student architecture and (unless
	// the spec overrides it) the tabularization table shape.
	var chosen *config.Candidate
	if spec.HasStudentBudget() || spec.HasDartBudget() {
		cand, err := spec.ConfigureStudent(data.History, data.InputDim(), data.OutputDim())
		if err != nil {
			return nil, err
		}
		chosen = &cand
	}
	if student {
		scfg := nn.StudentConfig(tcfg)
		smodel := config.ModelConfig{
			T: scfg.T, DI: scfg.DIn, DA: scfg.DModel, DF: scfg.DFF,
			DO: scfg.DOut, H: scfg.Heads, L: scfg.Layers,
		}
		if chosen != nil {
			smodel = chosen.Model
			scfg = nn.TransformerConfig{
				T: smodel.T, DIn: smodel.DI, DModel: smodel.DA, DFF: smodel.DF,
				DOut: smodel.DO, Heads: smodel.H, Layers: smodel.L,
			}
		}
		cfg.Student = func() nn.Layer {
			return nn.NewTransformerPredictor(scfg, rand.New(rand.NewSource(13)))
		}
		cfg.DistillInterval = distillInterval
		cfg.StudentLatency = config.NNLatency(smodel)
		cfg.StudentStorageBytes = config.NNStorageBits(smodel, 32) / 8
	}
	if dart {
		// Config.Tabular stays zero on the default path: the learner fills
		// in the shared serving default (online.DefaultTabularConfig — LSH,
		// small tables, the configuration the CI bench gate measures). A
		// spec-driven kernel (or a configured candidate) overrides it.
		cfg.Dart = true
		cfg.TabularizeInterval = tabularizeInterval
		if chosen != nil || spec.Kernel != "" || spec.K > 0 || spec.C > 0 || spec.Bits > 0 {
			tab := online.DefaultTabularConfig()
			if chosen != nil {
				tab.Kernel.K, tab.Kernel.C = chosen.Table.K, chosen.Table.C
				tab.Kernel.DataBits = chosen.Table.DataBits
			}
			if spec.Kernel != "" {
				kind, err := tabular.ParseEncoderKind(spec.Kernel)
				if err != nil {
					return nil, err
				}
				tab.Kernel.Kind = kind
			}
			if spec.K > 0 {
				tab.Kernel.K = spec.K
			}
			if spec.C > 0 {
				tab.Kernel.C = spec.C
			}
			if spec.Bits > 0 {
				tab.Kernel.DataBits = spec.Bits
			}
			cfg.Tabular = tab
		}
	}
	if gate {
		pc := online.PolicyConfig{
			AdmitThreshold:   spec.AdmitThreshold,
			AdmitWindow:      spec.AdmitWindow,
			DivergeThreshold: spec.DivergeThreshold,
			DivergeWindows:   spec.DivergeWindows,
			LiveWindow:       spec.LiveWindow,
			MinSourceDelta:   spec.MinSourceDelta,
			LogCap:           spec.LogCap,
		}
		if spec.HasStudentBudget() || spec.HasDartBudget() {
			pc.Budgets = map[string]online.Budget{}
			if spec.HasStudentBudget() {
				pc.Budgets[online.StudentClass] = online.Budget{
					LatencyCycles: spec.StudentLatency, StorageBytes: spec.StudentStorage,
				}
			}
			if spec.HasDartBudget() {
				pc.Budgets[online.DartClass] = online.Budget{
					LatencyCycles: spec.DartLatency, StorageBytes: spec.DartStorage,
				}
			}
		}
		cfg.Policy = &pc
	}
	return online.NewLearner(cfg)
}

// runReplay generates one synthetic trace per session (cycling through the
// benchmark apps with distinct seeds), replays them concurrently, and prints
// the report. With soak > 0 it repeats rounds (fresh session ids) until the
// deadline passes. Every round is checked for completeness: the engine must
// account for exactly the submitted accesses, dropped-free, whatever the
// prefetcher — the online model changes under training, but delivery must
// not.
func runReplay(spec serve.ReplaySpec, learner *online.Learner, sessions, n int, soak time.Duration, jsonOut string) {
	versioned := spec.Prefetcher == "online" || spec.Prefetcher == "student" ||
		(spec.Prefetcher == "dart" && learner != nil && learner.HasDart())
	if versioned && spec.Verify {
		fmt.Println("verify: versioned classes hot-swap under training; checking completeness instead of bit-identity")
		spec.Verify = false
	}
	apps := trace.Apps()
	deadline := time.Now().Add(soak)
	var rep serve.Report
	for round := 0; ; round++ {
		traces := make(map[string][]trace.Record, sessions)
		for i := 0; i < sessions; i++ {
			spec := apps[i%len(apps)]
			spec.Seed += int64(1000*(i/len(apps)+1) + 101*round)
			id := fmt.Sprintf("core%02d-%s", i, spec.Name)
			if soak > 0 {
				id = fmt.Sprintf("r%03d-%s", round, id)
			}
			traces[id] = trace.Generate(spec, n)
		}
		var err error
		rep, err = serve.Replay(spec, traces)
		if err != nil {
			fatalf("replay: %v", err)
		}
		if rep.Merged.Accesses != sessions*n {
			fatalf("COMPLETENESS FAILED: engine accounted %d accesses, submitted %d",
				rep.Merged.Accesses, sessions*n)
		}
		fmt.Print(rep)
		if spec.Verify {
			if !rep.Verified {
				fatalf("VERIFY FAILED: served results are not bit-identical to the offline simulator")
			}
			fmt.Println("verify: all sessions bit-identical to offline sim")
		} else {
			fmt.Printf("completeness: %d sessions, %d/%d accesses delivered in order\n",
				len(rep.Sessions), rep.Merged.Accesses, sessions*n)
		}
		if soak <= 0 || time.Now().After(deadline) {
			break
		}
	}
	if learner != nil {
		printLearner(learner)
	}
	if jsonOut != "" {
		writeJSON(jsonOut, rep, spec.Proto, spec.Batch)
	}
}

// printLearner dumps the online learner's state for log scraping.
func printLearner(l *online.Learner) {
	st := l.Stats()
	fmt.Printf("online: v%d (%d published)  ingested %d (%.0f/s, %d dropped)  useful %d late %d\n",
		st.Version, st.Published, st.Ingested, st.PerSec, st.Dropped, st.Useful, st.Late)
	fmt.Printf("online: examples %d  trained %d (%d steps)  loss %.4f (trend %+.4f)\n",
		st.Examples, st.Trained, st.Steps, st.Loss, st.LossTrend)
	if l.HasStudent() {
		fmt.Printf("student: v%d (%d published)  distilled %d (%d steps)  kd-loss %.4f (trend %+.4f)\n",
			st.StudentVersion, st.StudentPublished, st.Distilled, st.DistillSteps,
			st.DistillLoss, st.DistillTrend)
	}
	if l.HasDart() {
		fmt.Printf("dart: v%d (%d published)  tabularized %d (%.0f ms total)  attempts %d skips %d  latency %d cycles  storage %d B\n",
			st.DartVersion, st.DartPublished, st.Tabularized, st.TabularizeMs,
			st.DartAttempts, st.DartSkips, l.DartLatency(), l.DartStorageBytes())
	}
	if pol := l.Policy(); pol != nil {
		ps := pol.Stats()
		fmt.Printf("policy: admitted %d  held %d  rolled-back %d  skipped %d  (%d decisions)\n",
			ps.Admitted, ps.Held, ps.RolledBack, ps.Skipped, ps.Decisions)
		ds := pol.Decisions()
		if len(ds) > 5 {
			ds = ds[len(ds)-5:]
		}
		for _, d := range ds {
			fmt.Printf("policy: #%d %s %s v%d: %s\n", d.Seq, d.Class, d.Action, d.Version, d.Reason)
		}
	}
}

func orNone(s string) string {
	if s == "" {
		return "disabled"
	}
	return s
}

// writeJSON dumps the replay report with enough host context to act as a
// serving-throughput baseline (BENCH_serve.json). The file holds several
// independently-maintained sections, and a refresh of one must never drop
// the others: the "online" section (bench-gate baselines from `make
// bench-update`), the "binary" section (DARTWIRE1 replay + codec baselines),
// and the "report" section (the JSON-wire replay baseline the binary
// speedup gate divides against). A -proto binary run updates only the
// replay fields of the "binary" section (dart-benchcheck -write owns the
// codec fields); any other run rewrites the report/host fields.
func writeJSON(path string, rep serve.Report, proto string, batch int) {
	doc := map[string]json.RawMessage{}
	if prev, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(prev, &doc); err != nil {
			fatalf("%s: %v", path, err)
		}
	}
	mustRaw := func(v any) json.RawMessage {
		b, err := json.Marshal(v)
		if err != nil {
			fatalf("%v", err)
		}
		return b
	}
	if proto == "binary" {
		bin := map[string]json.RawMessage{}
		if sec, ok := doc["binary"]; ok {
			if err := json.Unmarshal(sec, &bin); err != nil {
				fatalf("%s: binary section: %v", path, err)
			}
		}
		bin["replay_throughput"] = mustRaw(rep.Throughput)
		bin["replay_batch"] = mustRaw(batch)
		bin["replay_command"] = mustRaw(strings.Join(os.Args, " "))
		bin["replay_generated"] = mustRaw(time.Now().Format("2006-01-02"))
		doc["binary"] = mustRaw(bin)
	} else {
		doc["generated"] = mustRaw(time.Now().Format("2006-01-02"))
		doc["command"] = mustRaw(strings.Join(os.Args, " "))
		doc["host"] = mustRaw(hostInfo{
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go:         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		})
		doc["report"] = mustRaw(rep)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("report written to %s\n", path)
}

type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

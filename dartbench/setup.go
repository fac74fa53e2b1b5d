package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"time"

	"dart/internal/config"
	"dart/internal/core"
	"dart/internal/kd"
	"dart/internal/mat"
	"dart/internal/prefetch"
	"dart/internal/route"
	"dart/internal/serve"
	"dart/internal/sim"
	"dart/internal/tabular"
	"dart/internal/trace"
)

// Training size. Small enough that building the artifact stays a minority of
// a run, large enough that the student reaches a test F1 near 0.8; the
// configurator's choice (K=128, C=2, two attention layers) depends only on
// the constraints. The model is trained from a fixed seed, so every run
// serves the same artifact and --seed varies only the served traffic.
const (
	trainAccesses = 1200
	teacherEpochs = 1
	distilEpochs  = 3
	fitSamples    = 128
	trainSeed     = 1
	evalSeed      = 2
	degree        = 4
	connections   = 2
)

// constraints are the configurator's design constraints, as in
// dart-serve -pretrain.
var constraints = config.Constraints{LatencyCycles: 100, StorageBytes: 1 << 20}

// mixSeed derives a per-stream generator seed from the run seed.
func mixSeed(base, seed int64) int64 { return base*1_000_003 + seed*7919 }

// inputs are everything a run feeds the program, generated before any timing
// starts. The served traces come from --seed; the training and evaluation
// traces from fixed seeds.
type inputs struct {
	train    []trace.Record   // DART training trace
	eval     [][]trace.Record // quality evaluation traces, one per application
	sessions []sessionInput   // one per trace.Apps() entry
	hash     uint64           // FNV-1a over every generated record
}

type sessionInput struct {
	id   string
	recs []trace.Record
}

// makeInputs generates the training trace and one trace per application.
func makeInputs(w workload, seed int64, seconds float64) inputs {
	var in inputs
	spec, _ := trace.AppByName("462.libquantum")
	spec.Seed = mixSeed(spec.Seed, trainSeed)
	in.train = trace.Generate(spec, trainAccesses)
	n := w.traceLen(seconds)
	for i, app := range trace.Apps() {
		ev := app
		ev.Seed = mixSeed(app.Seed, evalSeed)
		in.eval = append(in.eval, trace.Generate(ev, w.evalLen))
		app.Seed = mixSeed(app.Seed, seed)
		in.sessions = append(in.sessions, sessionInput{
			id:   fmt.Sprintf("s%d-%s", i, app.Name),
			recs: trace.Generate(app, n),
		})
	}
	in.hash = hashInputs(in)
	return in
}

// hashInputs fingerprints the generated records, so two runs can show they
// were fed the same inputs.
func hashInputs(in inputs) uint64 {
	h := fnv.New64a()
	var b [25]byte
	put := func(recs []trace.Record) {
		for _, r := range recs {
			for i, v := range []uint64{r.InstrID, r.PC, r.Addr} {
				for k := 0; k < 8; k++ {
					b[i*8+k] = byte(v >> (8 * k))
				}
			}
			b[24] = 0
			if r.IsLoad {
				b[24] = 1
			}
			h.Write(b[:])
		}
	}
	put(in.train)
	for _, e := range in.eval {
		put(e)
	}
	for _, s := range in.sessions {
		put(s.recs)
	}
	return h.Sum64()
}

// model is the served DART artifact.
type model struct {
	art      *core.Artifacts
	h        *tabular.Hierarchy // the served hierarchy (float or int8)
	latency  int                // modelled cycles the simulator charges
	storage  int                // modelled bytes (configurator)
	buildS   float64            // core.BuildDART wall time
	fitInput *mat.Tensor        // kernel-fitting sample for re-tabularization
}

// buildModel trains and tabularizes the DART artifact, and for 8-bit
// workloads re-tabularizes the distilled student with int8 tables.
func buildModel(train []trace.Record, bits int) (*model, error) {
	seed := int64(trainSeed)
	kdc := kd.DefaultConfig()
	kdc.Epochs = distilEpochs
	t0 := time.Now()
	art, err := core.BuildDART(train, core.Options{
		Constraints:    constraints,
		TeacherEpochs:  teacherEpochs,
		KD:             kdc,
		FineTune:       true,
		FineTuneEpochs: 1,
		FitSamples:     fitSamples,
		Seed:           seed,
	})
	if err != nil {
		return nil, fmt.Errorf("build DART: %w", err)
	}
	m := &model{art: art, h: art.Tables.Hierarchy, latency: art.Chosen.Latency,
		storage: art.Chosen.StorageBytes, buildS: time.Since(t0).Seconds()}
	rng := rand.New(rand.NewSource(seed))
	m.fitInput = art.Train.X.Gather(rng.Perm(art.Train.X.N)[:min(fitSamples, art.Train.X.N)])
	if bits == 8 {
		m.h = tabularize(art, m.fitInput, 8).Hierarchy
		cand := config.Evaluate(art.Chosen.Model, config.TableConfig{
			K: art.Chosen.Table.K, C: art.Chosen.Table.C, DataBits: 8})
		m.latency, m.storage = cand.Latency, cand.StorageBytes
	}
	return m, nil
}

// tabularize converts the artifact's student at the given entry width with
// the artifact's kernel shape.
func tabularize(art *core.Artifacts, fit *mat.Tensor, bits int) *tabular.Result {
	return tabular.Tabularize(art.Student, fit, tabular.Config{
		Kernel: tabular.KernelConfig{K: art.Chosen.Table.K, C: art.Chosen.Table.C,
			Kind: art.Opt.Encoder, DataBits: bits},
		FineTune:       true,
		FineTuneEpochs: 1,
		Seed:           trainSeed,
	})
}

// nn builds the prefetcher a served "dart" session runs: the engine's static
// model registration with the same hierarchy, data config, modelled latency
// and storage.
func (m *model) nn() *prefetch.NNPrefetcher {
	return prefetch.NewNNPrefetcher("DART", prefetch.TableModel{H: m.h},
		m.art.Opt.Data, m.latency, m.storage, degree)
}

// prefetcher is nn as a sim.Prefetcher, for offline reruns.
func (m *model) prefetcher() sim.Prefetcher { return m.nn() }

// backend is one serve.Engine behind a loopback serve.Server.
type backend struct {
	engine *serve.Engine
	server *serve.Server
	addr   string
	done   chan struct{}
}

func startBackend(cfg serve.Config) (*backend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &backend{engine: serve.NewEngine(cfg), addr: ln.Addr().String(), done: make(chan struct{})}
	b.server = serve.NewServer(b.engine)
	go func() {
		defer close(b.done)
		b.server.Serve(ln)
	}()
	return b, nil
}

func (b *backend) stop() {
	b.server.Stop()
	<-b.done
	b.engine.Drain()
}

// frontEnd is a route.Router over a set of backends behind a loopback
// route.Server.
type frontEnd struct {
	router *route.Router
	server *route.Server
	addr   string
	done   chan struct{}
}

func startFrontEnd(backends []*backend) (*frontEnd, error) {
	var specs []route.BackendSpec
	for i, b := range backends {
		specs = append(specs, route.BackendSpec{Name: fmt.Sprintf("b%d", i), Addr: b.addr})
	}
	r, err := route.NewRouter(route.Config{Backends: specs})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Close()
		return nil, err
	}
	f := &frontEnd{router: r, server: route.NewServer(r), addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		f.server.Serve(ln)
	}()
	return f, nil
}

func (f *frontEnd) stop() {
	f.server.Stop()
	<-f.done
	f.router.Close()
}

// system is one set-up instance of the program under test: its servers, its
// client connections and its open sessions.
type system struct {
	w        workload
	model    *model // nil for the rule-based workload
	backends []*backend
	front    *frontEnd // nil unless the workload is routed
	addr     string    // where the load clients connect
	conns    []*clientConn
}

// clientConn is one load-generating connection and the sessions it carries.
type clientConn struct {
	c        *serve.Client
	sessions []*session
}

// session is one served stream.
type session struct {
	id     string
	recs   []trace.Record
	sent   int           // accesses of the current trace replay acknowledged in order
	closed []serveResult // results of finished replays
}

// sessionOptions is how every session of the workload opens.
func (w workload) sessionOptions() serve.SessionOptions {
	pf := "dart"
	if w.bits == 0 {
		pf = "stride"
	}
	return serve.SessionOptions{Prefetcher: pf, Degree: degree}
}

// setUp starts the program for a workload: it builds the model (when the
// workload has one), starts the servers, dials the load connections and
// opens one session per application trace.
func setUp(w workload, in inputs) (*system, error) {
	sys := &system{w: w}
	cfg := serve.Config{}
	if w.bits != 0 {
		m, err := buildModel(in.train, w.bits)
		if err != nil {
			return nil, err
		}
		sys.model = m
		cfg.Model, cfg.Data = m.h, m.art.Opt.Data
		cfg.ModelLatency, cfg.ModelStorage = m.latency, m.storage
	}
	nBackends := 1
	if w.routed {
		nBackends = 3
	}
	for i := 0; i < nBackends; i++ {
		b, err := startBackend(cfg)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.backends = append(sys.backends, b)
	}
	sys.addr = sys.backends[0].addr
	if w.routed {
		f, err := startFrontEnd(sys.backends)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.front, sys.addr = f, f.addr
	}
	for c := 0; c < connections; c++ {
		cl, err := dial(sys.addr, w.frame)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.conns = append(sys.conns, &clientConn{c: cl})
	}
	for i, s := range in.sessions {
		cc := sys.conns[i%connections]
		if err := cc.c.OpenSession(s.id, w.sessionOptions()); err != nil {
			sys.close()
			return nil, fmt.Errorf("open %s: %w", s.id, err)
		}
		cc.sessions = append(cc.sessions, &session{id: s.id, recs: s.recs})
	}
	return sys, nil
}

// dial opens one binary-protocol client.
func dial(addr string, frame int) (*serve.Client, error) {
	return serve.Connect(addr, serve.WithProtocol("binary"), serve.WithBatchSize(frame),
		serve.WithTimeout(60*time.Second))
}

// accepted sums the accesses every backend engine has admitted.
func (sys *system) accepted() uint64 {
	var n uint64
	for _, b := range sys.backends {
		n += b.engine.StatsSnapshot().Accepted
	}
	return n
}

// close stops clients, front end, router and backends, waiting for each.
func (sys *system) close() {
	for _, cc := range sys.conns {
		cc.c.Close()
	}
	if sys.front != nil {
		sys.front.stop()
	}
	var wg sync.WaitGroup
	for _, b := range sys.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			b.stop()
		}(b)
	}
	wg.Wait()
}

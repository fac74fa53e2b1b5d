// Command dart-router is the horizontal-sharding front end: one serving
// address over N dart-serve backends. It terminates both wire protocols
// (line-delimited JSON and DARTWIRE1 binary framing), consistent-hashes each
// session's tenant onto a backend with a bounded-load ring, health-checks the
// backends (eject, exponential backoff, readmit, rebalance), and migrates
// sessions across backend leave/join by journal replay — bit-identically for
// deterministic serving classes (see internal/route/README.md).
//
// Serve mode fronts running backends:
//
//	dart-router -listen :7400 -backends shard0=10.0.0.1:7381,shard1=10.0.0.2:7381
//	dart-router -listen :7400 -spawn 3     # self-contained: 3 in-process backends
//
// -spawn runs N classical-class backends inside the router process on
// loopback ports — the one-binary demo and test mode. Real deployments run
// dart-serve daemons (with whatever model tiers they need) and list them via
// -backends; backends sharing a -checkpoint-dir converge on the same
// published model versions, so a session migrating between them sees one
// model lineage.
//
// Replay mode drives synthetic workloads through the router and verifies the
// acceptance bar end to end — merged replay bit-identical to a single node,
// over binary framing, through migration:
//
//	dart-router -spawn 3 -replay -sessions 8 -n 20000 -verify
//	dart-router -spawn 3 -replay -soak 60s -chaos
//
// -chaos (with -spawn) kills one backend mid-round and restarts it with a
// FRESH engine a moment later: the round must still deliver every access in
// order and bit-identical to the offline simulator, proving the journal
// migration path. Matrix mode replays the mixed-tenant scenario matrix the
// same way (default spec: deterministic classes only, since independent
// backends make versioned classes meaningless across shards):
//
//	dart-router -spawn 3 -matrix -soak 60s -chaos
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"dart/internal/route"
	"dart/internal/serve"
	"dart/internal/trace"
)

func main() {
	listen := flag.String("listen", "", "TCP listen address for the router front end, e.g. :7400")
	backends := flag.String("backends", "", "comma-separated backend list: name=host:port,... (names are the stable ring identities)")
	spawn := flag.Int("spawn", 0, "spawn this many in-process dart-serve backends on loopback ports instead of -backends")

	pool := flag.Int("pool", 2, "pooled binary connections per backend")
	timeout := flag.Duration("timeout", 2*time.Second, "per-call deadline on backend calls")
	healthInterval := flag.Duration("health-interval", 250*time.Millisecond, "backend health probe cadence (<0 disables the prober)")
	healthFails := flag.Int("health-fails", 2, "consecutive failures before a backend is ejected")
	bound := flag.Float64("bound", 1.25, "CHWBL load-bound factor c (per-backend cap = c * sessions/alive)")
	replicas := flag.Int("replicas", 64, "virtual ring points per backend")

	replay := flag.Bool("replay", false, "replay synthetic workloads through the router and exit")
	sessions := flag.Int("sessions", 8, "replay: concurrent sessions")
	n := flag.Int("n", 20000, "replay: accesses per session")
	prefetcher := flag.String("prefetcher", "stride", "replay: prefetcher every session opens (none|bo|isb|stride)")
	degree := flag.Int("degree", 4, "replay: prefetch degree")
	qps := flag.Float64("qps", 0, "replay: aggregate target accesses/sec (0 = unthrottled)")
	proto := flag.String("proto", "binary", "replay/matrix: wire transport to the router — json or binary")
	batch := flag.Int("batch", 64, "replay/matrix: accesses per wire frame")
	verify := flag.Bool("verify", true, "replay: require bit-identity with the offline simulator")
	soak := flag.Duration("soak", 0, "replay/matrix: repeat rounds until this much wall time has elapsed")
	chaos := flag.Bool("chaos", false, "replay/matrix soak: kill one spawned backend mid-round and restart it (requires -spawn)")
	jsonOut := flag.String("json", "", "replay: also record the routed replay in the \"router\" section of this JSON file")

	matrix := flag.Bool("matrix", false, "replay a mixed-tenant scenario matrix through the router and exit")
	matrixSpec := flag.String("matrix-spec", "", "matrix: tenant spec — name:key=value,...;name:... (default: the deterministic-class router matrix)")
	flag.Parse()

	if *spawn > 0 && *backends != "" {
		fatalf("-spawn and -backends are exclusive")
	}
	if *chaos && *spawn == 0 {
		fatalf("-chaos needs -spawn (it must own the backend processes it kills)")
	}

	var specs []route.BackendSpec
	var spawned []*localBackend
	if *spawn > 0 {
		for i := 0; i < *spawn; i++ {
			lb, err := spawnBackend(fmt.Sprintf("shard%d", i))
			if err != nil {
				fatalf("spawn: %v", err)
			}
			spawned = append(spawned, lb)
			specs = append(specs, route.BackendSpec{Name: lb.name, Addr: lb.addr})
			fmt.Printf("spawned backend %s on %s\n", lb.name, lb.addr)
		}
	} else {
		var err error
		if specs, err = parseBackends(*backends); err != nil {
			fatalf("%v", err)
		}
	}
	if len(specs) == 0 {
		fatalf("need -backends or -spawn")
	}

	r, err := route.NewRouter(route.Config{
		Backends:       specs,
		PoolSize:       *pool,
		Timeout:        *timeout,
		HealthInterval: *healthInterval,
		HealthFails:    *healthFails,
		BoundFactor:    *bound,
		Replicas:       *replicas,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		fatalf("router: %v", err)
	}
	defer r.Close()

	laddr := *listen
	if laddr == "" {
		if !*replay && !*matrix {
			fatalf("need -listen, -replay, or -matrix")
		}
		laddr = "127.0.0.1:0" // replay modes only need a loopback front end
	}
	ln, err := net.Listen("tcp", laddr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	srv := route.NewServer(r)

	if *replay || *matrix {
		go srv.Serve(ln)
		defer srv.Stop()
		base := serve.ReplaySpec{
			Addr:  ln.Addr().String(),
			Proto: *proto,
			Batch: *batch,
		}
		if *matrix {
			runRouterMatrix(base, *matrixSpec, *soak, chaosFor(*chaos, spawned, r))
		} else {
			base.Prefetcher = *prefetcher
			base.Degree = *degree
			base.QPS = *qps
			base.Verify = *verify
			runRouterReplay(base, *sessions, *n, *soak, chaosFor(*chaos, spawned, r), *jsonOut)
		}
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("\n%v: stopping router\n", s)
		srv.Stop()
	}()
	fmt.Printf("dart-router listening on %s over %d backends\n", ln.Addr(), len(specs))
	if err := srv.Serve(ln); err != nil {
		fatalf("serve: %v", err)
	}
}

// parseBackends parses "name=host:port,..." (bare addresses get positional
// shard names).
func parseBackends(s string) ([]route.BackendSpec, error) {
	var specs []route.BackendSpec
	for i, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, addr, ok := strings.Cut(item, "=")
		if !ok {
			name, addr = fmt.Sprintf("shard%d", i), item
		}
		specs = append(specs, route.BackendSpec{Name: name, Addr: addr})
	}
	return specs, nil
}

// localBackend is one -spawn shard: a classical-class serve engine on a
// loopback port that chaos mode can kill and restart (fresh engine, same
// address — a crashed-and-replaced process as the router sees it).
type localBackend struct {
	name, addr string

	mu  sync.Mutex
	srv *serve.Server
}

func spawnBackend(name string) (*localBackend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &localBackend{name: name, addr: ln.Addr().String()}
	lb.start(ln)
	return lb, nil
}

func (b *localBackend) start(ln net.Listener) {
	srv := serve.NewServer(serve.NewEngine(serve.Config{}))
	go srv.Serve(ln)
	b.mu.Lock()
	b.srv = srv
	b.mu.Unlock()
}

func (b *localBackend) kill() {
	b.mu.Lock()
	srv := b.srv
	b.srv = nil
	b.mu.Unlock()
	if srv != nil {
		srv.Stop()
	}
}

func (b *localBackend) restart() error {
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ { // the port was just freed; the OS may lag
		if ln, err = net.Listen("tcp", b.addr); err == nil {
			b.start(ln)
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return err
}

// chaosFor returns the per-round chaos hook: kill one spawned backend
// shortly into the round, restart it with a fresh engine a moment later, and
// wait for both to have happened before the round is declared done. The
// victim rotates round-robin across the backends the router currently
// trusts; a round where fewer than two are healthy skips its kill — a
// restarted backend sits out the prober's readmission backoff, and killing
// the last healthy shard would leave sessions nowhere to migrate. Nil when
// chaos is off.
func chaosFor(enabled bool, spawned []*localBackend, r *route.Router) func(round int, wait func()) {
	if !enabled || len(spawned) == 0 || r == nil {
		return nil
	}
	return func(round int, wait func()) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(50 * time.Millisecond) // let the round's sessions spread out
			b := chaosVictim(r, spawned, round)
			if b == nil {
				fmt.Println("chaos: skipping kill this round (waiting on readmissions)")
				return
			}
			fmt.Printf("chaos: killing backend %s\n", b.name)
			b.kill()
			time.Sleep(500 * time.Millisecond)
			if err := b.restart(); err != nil {
				fatalf("chaos: restart %s: %v", b.name, err)
			}
			fmt.Printf("chaos: backend %s restarted (fresh engine)\n", b.name)
		}()
		wait()
		<-done
	}
}

// chaosVictim picks the round's kill target: the round-robin choice among
// spawned backends the router reports healthy, or nil when a kill would
// leave fewer than one healthy backend behind.
func chaosVictim(r *route.Router, spawned []*localBackend, round int) *localBackend {
	rep, err := r.Stats()
	if err != nil {
		return nil
	}
	healthy := make(map[string]bool)
	alive := 0
	for _, row := range rep.Stats.Backends {
		if row.Healthy {
			healthy[row.Name] = true
			alive++
		}
	}
	if alive < 2 {
		return nil
	}
	for i := 0; i < len(spawned); i++ {
		if b := spawned[(round+i)%len(spawned)]; healthy[b.name] {
			return b
		}
	}
	return nil
}

// runRouterReplay replays synthetic traces through the router front end in
// rounds, enforcing completeness (every access delivered in order) and, with
// verify, bit-identity with the offline simulator — through chaos kills when
// enabled.
func runRouterReplay(spec serve.ReplaySpec, sessions, n int, soak time.Duration, chaos func(int, func()), jsonOut string) {
	apps := trace.Apps()
	deadline := time.Now().Add(soak)
	var rep serve.Report
	for round := 0; ; round++ {
		traces := make(map[string][]trace.Record, sessions)
		for i := 0; i < sessions; i++ {
			app := apps[i%len(apps)]
			app.Seed += int64(1000*(i/len(apps)+1) + 101*round)
			traces[fmt.Sprintf("r%03d-core%02d-%s", round, i, app.Name)] = trace.Generate(app, n)
		}
		run := func() {
			var err error
			if rep, err = serve.Replay(spec, traces); err != nil {
				fatalf("replay: %v", err)
			}
		}
		if chaos != nil {
			chaos(round, run)
		} else {
			run()
		}
		if rep.Merged.Accesses != sessions*n {
			fatalf("COMPLETENESS FAILED: router accounted %d accesses, submitted %d",
				rep.Merged.Accesses, sessions*n)
		}
		fmt.Print(rep)
		if spec.Verify {
			if !rep.Verified {
				fatalf("VERIFY FAILED: routed results are not bit-identical to the offline simulator")
			}
			fmt.Println("verify: all sessions bit-identical to offline sim through the router")
		}
		if soak <= 0 || time.Now().After(deadline) {
			break
		}
	}
	if jsonOut != "" {
		writeRouterJSON(jsonOut, rep)
	}
}

// runRouterMatrix replays the mixed-tenant scenario matrix through the
// router in rounds. Every round must be complete, and every checkable tenant
// bit-identical (the default router spec is all-deterministic, so that is
// every tenant).
func runRouterMatrix(base serve.ReplaySpec, spec string, soak time.Duration, chaos func(int, func())) {
	if spec == "" {
		spec = serve.DefaultRouterMatrixSpec
	}
	tenants, err := serve.ParseMatrixSpec(spec)
	if err != nil {
		fatalf("matrix: %v", err)
	}
	base.Verify = true
	deadline := time.Now().Add(soak)
	for round := 0; ; round++ {
		rt := make([]serve.TenantSpec, len(tenants))
		copy(rt, tenants)
		for i := range rt {
			rt[i].Seed += int64(1000 * round)
		}
		base.Tenants = rt
		var rep serve.MatrixReport
		run := func() {
			if rep, err = serve.ReplayMatrix(base); err != nil {
				fatalf("matrix: %v", err)
			}
		}
		if chaos != nil {
			chaos(round, run)
		} else {
			run()
		}
		fmt.Print(rep)
		if !rep.Complete {
			fatalf("COMPLETENESS FAILED: a tenant's accesses were dropped or reordered")
		}
		if !rep.Verified {
			fatalf("VERIFY FAILED: a checkable tenant is not bit-identical to the offline simulator")
		}
		if soak <= 0 || time.Now().After(deadline) {
			break
		}
	}
}

// writeRouterJSON records the routed replay in the "router" section of the
// shared baseline file, preserving every other section. The overhead-gate
// fields (router_access_ns, direct_access_ns) are owned by `dart-benchcheck
// -write`; this writes only the replay fields.
func writeRouterJSON(path string, rep serve.Report) {
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
	sec := map[string]json.RawMessage{}
	if prev, ok := doc["router"]; ok {
		if err := json.Unmarshal(prev, &sec); err != nil {
			fatalf("%s: router section: %v", path, err)
		}
	}
	sec["replay_throughput"] = mustRaw(rep.Throughput)
	sec["replay_sessions"] = mustRaw(len(rep.Sessions))
	sec["replay_command"] = mustRaw(strings.Join(os.Args, " "))
	sec["replay_generated"] = mustRaw(time.Now().Format("2006-01-02"))
	doc["router"] = mustRaw(sec)
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("router report written to %s\n", path)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

package main

import (
	"fmt"
	"sort"
	"sync"

	"dart/internal/sim"
	"dart/internal/trace"
)

// serveResult is what the server reported at one close of a session.
type serveResult struct {
	sent int // accesses the client had acknowledged since the session opened
	res  sim.Result
}

// sessionCheck is one session's offline comparison.
type sessionCheck struct {
	id        string
	sent      int // accesses over every replay
	identical bool
	err       error
}

// verdict is the correctness outcome of a load phase.
type verdict struct {
	checks   []sessionCheck
	failed   int // accesses in failed frames or in sessions that did not match
	problems []string
}

// verify replays every session's served records through the offline
// simulator, requires each served result to be bit-identical to it, and
// requires the backends to have admitted exactly the accesses the clients
// sent. served holds one result per replay of a session's trace. The offline
// runs share two goroutines; newPF builds a fresh prefetcher equal to the one
// a served session runs.
func verify(traces map[string][]trace.Record, served map[string][]serveResult,
	accepted uint64, failedFrameAcc int, newPF func() sim.Prefetcher) verdict {
	ids := make([]string, 0, len(served))
	for id := range served {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	checks := make([]sessionCheck, len(ids))
	cfg := sim.DefaultConfig()
	parallel(len(ids), func(i int) {
		checks[i] = checkSession(ids[i], traces[ids[i]], served[ids[i]], cfg, newPF())
	})

	v := verdict{checks: checks, failed: failedFrameAcc}
	if failedFrameAcc > 0 {
		v.problems = append(v.problems, fmt.Sprintf("%d accesses in failed frames", failedFrameAcc))
	}
	var sent uint64
	for _, c := range checks {
		sent += uint64(c.sent)
		if c.err != nil {
			v.failed += c.sent
			v.problems = append(v.problems, c.err.Error())
		}
	}
	if failedFrameAcc == 0 && accepted != sent {
		v.problems = append(v.problems, fmt.Sprintf("backends admitted %d accesses, clients sent %d", accepted, sent))
	}
	return v
}

// checkSession compares each served replay of one session's trace with one
// offline run over the same records, snapshotted at every replay's length.
func checkSession(id string, recs []trace.Record, got []serveResult, cfg sim.Config, pf sim.Prefetcher) sessionCheck {
	c := sessionCheck{id: id}
	longest := 0
	want := map[int]sim.Result{}
	for _, g := range got {
		c.sent += g.sent
		if g.res.Accesses != g.sent {
			c.err = fmt.Errorf("%s: server accounted %d accesses, client sent %d", id, g.res.Accesses, g.sent)
			return c
		}
		if g.sent > len(recs) {
			c.err = fmt.Errorf("%s: %d accesses sent from a %d-record trace", id, g.sent, len(recs))
			return c
		}
		longest = max(longest, g.sent)
		want[g.sent] = sim.Result{}
	}
	s := sim.NewSim(pf, cfg)
	snap := func(n int) {
		if _, ok := want[n]; ok {
			want[n] = s.Result()
		}
	}
	snap(0)
	for i, r := range recs[:longest] {
		s.Step(r)
		snap(i + 1)
	}
	for _, g := range got {
		if off := want[g.sent]; off != g.res {
			c.err = fmt.Errorf("%s: served result differs from offline sim.Run over the same %d accesses:\n  served  %+v\n  offline %+v",
				id, g.sent, g.res, off)
			return c
		}
	}
	c.identical = true
	return c
}

// parallel runs fn(0..n-1) on as many goroutines as there are connections
// and waits for them.
func parallel(n int, fn func(i int)) {
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for g := 0; g < connections; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// quality is the simulated prediction quality of a prefetcher class.
type quality struct {
	accuracy, coverage, ipcGain, f1 float64
}

// evalQuality simulates the served prefetcher class over the fixed
// evaluation traces, whose seed does not change with --seed, so the figures
// repeat exactly and move only when the class's predictions change. Served
// sessions are bit-identical to this simulator, as verify checks on every
// run. Coverage and IPC gain are measured against a no-prefetch run of the
// same traces; f1 is the harmonic mean of accuracy (precision) and coverage
// (recall).
func evalQuality(eval [][]trace.Record, newPF func() sim.Prefetcher) quality {
	cfg := sim.DefaultConfig()
	pf := make([]sim.Result, len(eval))
	base := make([]sim.Result, len(eval))
	parallel(len(eval), func(i int) {
		pf[i] = sim.Run(eval[i], newPF(), cfg)
		base[i] = sim.Run(eval[i], sim.NoPrefetcher{}, cfg)
	})
	m, b := sim.Merge(pf), sim.Merge(base)
	q := quality{accuracy: m.Accuracy(), coverage: sim.Coverage(b, m), ipcGain: sim.IPCImprovement(b, m)}
	if q.accuracy+q.coverage > 0 {
		q.f1 = 2 * q.accuracy * q.coverage / (q.accuracy + q.coverage)
	}
	return q
}

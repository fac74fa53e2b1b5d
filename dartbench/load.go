package main

import (
	"fmt"
	"sync"
	"time"
)

// memSampleEvery is how often a load phase samples resident memory.
const memSampleEvery = 50 * time.Millisecond

// loadResult is what one load phase measured.
type loadResult struct {
	frames  []frameRec
	elapsed time.Duration
	peakRSS uint64 // most resident memory sampled during the phase
	spans   []span // client.frame spans (traced phases only)
	errs    []error
}

// runLoad drives every connection from its own goroutine for dur and waits
// for them. Each connection runs a closed loop: it sends its next frame, for
// the next of its sessions in round-robin order, as soon as the previous
// reply is read. With traced set, every frame is recorded as a client.frame
// span.
func runLoad(sys *system, dur time.Duration, traced bool) loadResult {
	w := sys.w
	var wg sync.WaitGroup
	per := make([]loadResult, len(sys.conns))
	start := time.Now()
	for c, cc := range sys.conns {
		wg.Add(1)
		go func(c int, cc *clientConn) {
			defer wg.Done()
			var tr *tracer
			if traced {
				tr = &tracer{origin: start}
			}
			per[c] = closedLoop(cc, w, start, dur, tr)
			if tr != nil {
				per[c].spans = tr.spans
			}
		}(c, cc)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	peak := residentBytes()
	tick := time.NewTicker(memSampleEvery)
	defer tick.Stop()
	for waiting := true; waiting; {
		select {
		case <-done:
			waiting = false
		case <-tick.C:
			peak = max(peak, residentBytes())
		}
	}
	out := loadResult{elapsed: time.Since(start), peakRSS: max(peak, residentBytes())}
	for _, p := range per {
		out.frames = append(out.frames, p.frames...)
		out.spans = append(out.spans, p.spans...)
		out.errs = append(out.errs, p.errs...)
	}
	return out
}

// rollover closes a session that has reached the end of its trace, keeps its
// served result for verification, and reopens it to replay the trace from
// the start, so the router's per-session journal stays bounded.
func rollover(cc *clientConn, s *session, w workload) error {
	if s.sent+w.frame <= len(s.recs) {
		return nil
	}
	res, err := cc.c.CloseSession(s.id)
	if err != nil {
		return fmt.Errorf("close %s: %w", s.id, err)
	}
	s.closed = append(s.closed, serveResult{sent: s.sent, res: res})
	if err := cc.c.OpenSession(s.id, w.sessionOptions()); err != nil {
		return fmt.Errorf("reopen %s: %w", s.id, err)
	}
	s.sent = 0
	return nil
}

// sendFrame sends the session's next frame and checks the reply is complete
// and in order: one result per record, sequence numbers continuing where the
// session left off.
func sendFrame(cc *clientConn, s *session, n int) error {
	res, err := cc.c.AccessBatch(s.id, s.recs[s.sent:s.sent+n])
	if err != nil {
		return fmt.Errorf("%s: %w", s.id, err)
	}
	if len(res) != n {
		return fmt.Errorf("%s: %d results for %d accesses", s.id, len(res), n)
	}
	for i, r := range res {
		if want := uint64(s.sent + i + 1); r.Seq != want {
			return fmt.Errorf("%s: reply seq %d, want %d", s.id, r.Seq, want)
		}
	}
	s.sent += n
	return nil
}

// closedLoop runs until dur has passed.
func closedLoop(cc *clientConn, w workload, start time.Time, dur time.Duration, tr *tracer) loadResult {
	var out loadResult
	out.frames = make([]frameRec, 0, int(w.maxRate*dur.Seconds())/w.frame/connections+1024)
	free := time.Since(start)
	for k := 0; ; k++ {
		if free >= dur {
			break
		}
		s := cc.sessions[k%len(cc.sessions)]
		if s.sent+w.frame > len(s.recs) {
			if err := rollover(cc, s, w); err != nil {
				out.errs = append(out.errs, err)
				break
			}
			free = time.Since(start)
		}
		f := frameRec{due: free, n: w.frame}
		sp := -1
		f.send = time.Since(start)
		if tr != nil {
			sp = tr.begin("client.frame", -1, int64(len(out.frames)))
		}
		err := sendFrame(cc, s, w.frame)
		if tr != nil {
			tr.end(sp)
		}
		f.done = time.Since(start)
		f.ok = err == nil
		out.frames = append(out.frames, f)
		if err != nil {
			out.errs = append(out.errs, err)
			break
		}
		free = f.done
	}
	return out
}

// closeSessions closes every session over its own connection and returns
// each session's served results, one per trace replay, keyed by session id.
func (sys *system) closeSessions() (map[string][]serveResult, error) {
	out := make(map[string][]serveResult)
	for _, cc := range sys.conns {
		for _, s := range cc.sessions {
			res, err := cc.c.CloseSession(s.id)
			if err != nil {
				return out, fmt.Errorf("close %s: %w", s.id, err)
			}
			out[s.id] = append(s.closed, serveResult{sent: s.sent, res: res})
		}
	}
	return out, nil
}

// reopen opens fresh sessions under the same ids, rewinding each trace, so a
// second load phase replays the same records.
func (sys *system) reopen() error {
	for _, cc := range sys.conns {
		for _, s := range cc.sessions {
			if err := cc.c.OpenSession(s.id, sys.w.sessionOptions()); err != nil {
				return fmt.Errorf("reopen %s: %w", s.id, err)
			}
			s.sent, s.closed = 0, nil
		}
	}
	return nil
}

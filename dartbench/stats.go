package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailIndex picks, for n ascending samples, the nearest-rank index of the
// highest percentile not above want that still leaves at least minBeyond
// samples after it. ok is false when n is too small for any tail.
func tailIndex(n int, want float64) (idx int, ok bool) {
	if n <= minBeyond {
		return 0, false
	}
	idx = int(math.Ceil(want*float64(n))) - 1
	if idx > n-1-minBeyond {
		idx = n - 1 - minBeyond
	}
	if idx < 0 {
		idx = 0
	}
	return idx, true
}

// quantile is one reported percentile of a sample.
type quantile struct {
	Value float64 // in the sample's unit
	Pct   float64 // percentile actually reported, 0-100
	N     int     // sample count
}

// tail reports the highest percentile up to want with minBeyond samples
// beyond it. The input is sorted in place.
func tail(xs []float64, want float64) (quantile, error) {
	sort.Float64s(xs)
	idx, ok := tailIndex(len(xs), want)
	if !ok {
		return quantile{N: len(xs)}, fmt.Errorf("%d samples leave no percentile with %d beyond it", len(xs), minBeyond)
	}
	return quantile{Value: xs[idx], Pct: 100 * float64(idx+1) / float64(len(xs)), N: len(xs)}, nil
}

// median of xs (sorted in place); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// frameRec is one client frame's timeline, as offsets from the load start.
// A frame falls due when the previous reply on its connection has been read.
type frameRec struct {
	due, send, done time.Duration
	n               int  // accesses carried
	ok              bool // a complete, in-order reply came back
}

// latency is the frame's time from due to reply.
func (f frameRec) latency() time.Duration { return f.done - f.due }

// genLag is how late the generator sent the frame after it fell due.
func (f frameRec) genLag() time.Duration { return f.send - f.due }

// frameSummary is the end-to-end view of a load phase.
type frameSummary struct {
	Frames, OK   int // frames sent, answered correctly
	Accesses     int // accesses in frames answered correctly
	AccAttempted int // accesses in frames sent
	P50, P95     quantile
	Tail         quantile // highest percentile up to p99 with minBeyond samples beyond
	GenLag       quantile
	SLOMet       float64 // share of frames answered within the limit
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summarize folds frame timelines into latency, lag and SLO figures. Latency
// runs from each frame's due time; failed frames count as SLO misses.
func summarize(frames []frameRec, slo time.Duration) (frameSummary, error) {
	s := frameSummary{Frames: len(frames)}
	var lat, lag []float64
	met := 0
	for _, f := range frames {
		s.AccAttempted += f.n
		lag = append(lag, ms(f.genLag()))
		if !f.ok {
			continue
		}
		s.OK++
		s.Accesses += f.n
		lat = append(lat, ms(f.latency()))
		if f.latency() <= slo {
			met++
		}
	}
	if s.Frames == 0 {
		return s, fmt.Errorf("no frames")
	}
	s.SLOMet = float64(met) / float64(s.Frames)
	var err error
	if s.Tail, err = tail(lat, 0.99); err != nil {
		return s, fmt.Errorf("frame latency: %w", err)
	}
	if s.P95, err = tail(lat, 0.95); err != nil {
		return s, fmt.Errorf("frame latency: %w", err)
	}
	s.P50 = quantile{Value: median(lat), Pct: 50, N: len(lat)}
	if s.GenLag, err = tail(lag, 0.99); err != nil {
		return s, fmt.Errorf("generator lag: %w", err)
	}
	return s, nil
}

// windowRate splits [0, dur) into whole windows and returns the median, over
// windows, of accesses answered per second. Each answered frame's accesses
// are spread evenly over its send→reply interval, so a window's count is not
// rounded to whole frames. A median over windows keeps a brief stall from
// moving the whole run's rate.
func windowRate(frames []frameRec, dur, window time.Duration) float64 {
	windows := int(dur / window)
	if windows == 0 {
		return 0
	}
	counts := make([]float64, windows)
	for _, f := range frames {
		if !f.ok {
			continue
		}
		span := float64(f.done - f.send)
		if span <= 0 {
			if k := int(f.done / window); k < windows {
				counts[k] += float64(f.n)
			}
			continue
		}
		for k := int(f.send / window); k < windows && time.Duration(k)*window < f.done; k++ {
			lo := max(f.send, time.Duration(k)*window)
			hi := min(f.done, time.Duration(k+1)*window)
			counts[k] += float64(f.n) * float64(hi-lo) / span
		}
	}
	return median(counts) / window.Seconds()
}

// span is one timed call, recorded in memory during a traced run.
type span struct {
	name       string
	start, end int64 // ns since the tracer's origin
	parent     int   // index of the enclosing span, -1 for a root
	frame      int64 // frame or access id the span belongs to
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, frame int64) int {
	t.spans = append(t.spans, span{name: name, parent: parent, frame: frame,
		start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) { t.spans[i].end = int64(time.Since(t.origin)) }

// spanTotal is a per-name aggregate of span durations.
type spanTotal struct {
	Count   int
	TotalNs int64
	SelfNs  int64 // total minus the time covered by child spans
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals, clipped to the span.
func selfTimes(spans []span) map[string]*spanTotal {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]*spanTotal)
	for i, s := range spans {
		agg := out[s.name]
		if agg == nil {
			agg = &spanTotal{}
			out[s.name] = agg
		}
		dur := s.end - s.start
		var ivs [][2]int64
		for _, c := range children[i] {
			cs := spans[c]
			lo, hi := max(cs.start, s.start), min(cs.end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		agg.Count++
		agg.TotalNs += dur
		agg.SelfNs += dur - covered(ivs)
	}
	return out
}

// covered is the length of the union of intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		if open && iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv[0], iv[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// metricName is the legal shape of a reported metric name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects metrics by name, refusing illegal or repeated names.
type metricSet struct {
	order []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) add(name string, value float64, unit string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("illegal metric name %q", name)
	}
	if _, dup := s.m[name]; dup {
		return fmt.Errorf("metric %q reported twice", name)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Errorf("metric %q is not a finite number", name)
	}
	s.order = append(s.order, name)
	s.m[name] = metric{Value: value, Unit: unit}
	return nil
}

package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refSqDist is the per-prototype squared distance Nearest must reproduce bit
// for bit: one prototype at a time, stored point-major, summed from j = 0.
func refSqDist(x, center []float64) float64 {
	var s float64
	for j, xv := range x {
		d := xv - center[j]
		s += float64(d * d)
	}
	return s
}

// refNearest is the scalar scan Nearest must reproduce: every distance of k
// point-major prototypes of length len(x), then the first strict minimum
// from +Inf.
func refNearest(x, centers []float64, k int) int {
	v := len(x)
	best, bestD := 0, math.Inf(1)
	for i := 0; i < k; i++ {
		if d := refSqDist(x, centers[i*v:(i+1)*v]); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// dimMajor transposes k point-major prototypes of length v into [v][k].
func dimMajor(centers []float64, v, k int) []float64 {
	ct := make([]float64, v*k)
	for i := 0; i < k; i++ {
		for j := 0; j < v; j++ {
			ct[j*k+i] = centers[i*v+j]
		}
	}
	return ct
}

// forEachKernel runs fn as a subtest under every kernel eachKernel offers.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	eachKernel(func(vector bool) {
		name := "scalar"
		if vector {
			name = "vector"
		}
		t.Run(name, fn)
	})
}

// checkNearest fails the test unless Nearest agrees with the reference scan.
func checkNearest(t *testing.T, what string, x, centers []float64, k int) {
	t.Helper()
	got := Nearest(x, dimMajor(centers, len(x), k), k)
	if want := refNearest(x, centers, k); got != want {
		t.Fatalf("K=%d V=%d %s: Nearest = %d, reference scan = %d", k, len(x), what, got, want)
	}
}

// TestNearestBitIdentical checks the kernel against the reference scan
// across prototype counts straddling the 16-wide vector body and its scalar
// tail, with both gate values forced. Besides Gaussian data it plants exact
// ties (a query equal to a duplicated prototype; equal minima in one lane
// across blocks, across the lanes of one block, and between the vector body
// and the tail), huge values that overflow to +Inf, ±Inf/NaN coordinates on
// both sides of the subtract, and rows whose distances are all NaN, all
// +Inf, or NaN in some lanes only.
func TestNearestBitIdentical(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e200, -1e200, 0, math.Copysign(0, -1)}
		for _, k := range []int{1, 4, 15, 16, 17, 32, 100, 128, 129, 256} {
			for _, v := range []int{1, 4, 8, 32} {
				newCase := func() (x, centers []float64) {
					centers = make([]float64, k*v)
					for i := range centers {
						centers[i] = rng.NormFloat64() * 3
					}
					x = make([]float64, v)
					for j := range x {
						x[j] = rng.NormFloat64() * 3
					}
					return x, centers
				}
				// plant makes prototypes p and q equal and nearest: x sits on
				// them and every other prototype is pushed far away.
				plant := func(x, centers []float64, p, q int) {
					for i := 0; i < k; i++ {
						if i != p && i != q {
							centers[i*v] = x[0] + 100 + float64(i)
						}
					}
					copy(centers[p*v:(p+1)*v], x)
					copy(centers[q*v:(q+1)*v], x)
				}
				for trial := 0; trial < 4; trial++ {
					x, centers := newCase()
					switch trial {
					case 1: // exact tie: x equals a prototype that is duplicated
						p := rng.Intn(k)
						copy(x, centers[p*v:(p+1)*v])
						q := rng.Intn(k)
						copy(centers[q*v:(q+1)*v], x)
					case 2: // special values in the codebook
						for n := 0; n < 1+k*v/8; n++ {
							centers[rng.Intn(k*v)] = specials[rng.Intn(len(specials))]
						}
					case 3: // special values in the query
						x[rng.Intn(v)] = specials[rng.Intn(len(specials))]
					}
					checkNearest(t, "random", x, centers, k)
				}
				k16 := k &^ 15
				if k16 >= 32 { // same lane, two blocks
					l := rng.Intn(16)
					for _, b := range [][2]int{{0, 1}, {0, k16/16 - 1}} {
						x, centers := newCase()
						plant(x, centers, 16*b[0]+l, 16*b[1]+l)
						checkNearest(t, "same-lane tie", x, centers, k)
					}
				}
				if k16 >= 16 { // two lanes of one block, either order
					b := rng.Intn(k16 / 16)
					for _, l := range [][2]int{{0, 15}, {3, 4}, {9, 2}} {
						x, centers := newCase()
						plant(x, centers, 16*b+l[0], 16*b+l[1])
						checkNearest(t, "cross-lane tie", x, centers, k)
					}
					x, centers := newCase() // tie with different registers and blocks
					plant(x, centers, 16*(k16/16-1)+1, 14)
					checkNearest(t, "cross-block tie", x, centers, k)
				}
				if k16 >= 16 && k > k16 { // vector body against the scalar tail
					x, centers := newCase()
					plant(x, centers, rng.Intn(k16), k16+rng.Intn(k-k16))
					checkNearest(t, "body-tail tie", x, centers, k)
				}
				for _, fill := range []float64{math.NaN(), math.Inf(1)} {
					x, centers := newCase()
					x[0] = fill // every distance NaN (resp. +Inf)
					checkNearest(t, "all non-finite", x, centers, k)
					if got := Nearest(x, dimMajor(centers, v, k), k); got != 0 {
						t.Fatalf("K=%d V=%d: all-%v row encodes as %d, want 0", k, v, fill, got)
					}
				}
				x, centers := newCase() // NaN in some lanes only
				for i := 0; i < k; i += 3 {
					centers[i*v+rng.Intn(v)] = math.NaN()
				}
				checkNearest(t, "NaN lanes", x, centers, k)
			}
		}
	})
}

// fusedSqDist is what an FMA-fused kernel would compute: s = d·d + s with
// one rounding per step instead of two.
func fusedSqDist(x, center []float64) float64 {
	var s float64
	for j, xv := range x {
		d := xv - center[j]
		s = math.FMA(d, d, s)
	}
	return s
}

// TestNearestRoundsLikeScalar plants prototype pairs whose order depends on
// rounding: a and b sit at the same exact distance from x (their coordinate
// differences swapped), so the two-rounding sum ties them while a fused
// multiply-add tells them apart. Nearest must keep the two-rounding winner
// in every lane and block position, so a kernel that fused the multiply and
// add, or mis-ordered the tie, fails here.
func TestNearestRoundsLikeScalar(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		const k, v = 64, 2
		found := 0
		for try := 0; try < 20000 && found < 32; try++ {
			x := []float64{rng.NormFloat64(), rng.NormFloat64()}
			a := []float64{rng.NormFloat64(), rng.NormFloat64()}
			b := []float64{x[0] - (x[1] - a[1]), x[1] - (x[0] - a[0])}
			if refSqDist(x, a) != refSqDist(x, b) || fusedSqDist(x, a) == fusedSqDist(x, b) {
				continue
			}
			found++
			centers := make([]float64, k*v)
			for i := 0; i < k; i++ {
				centers[i*v] = x[0] + 100 + float64(i)
			}
			p, q := rng.Intn(k), rng.Intn(k-1)
			if q >= p {
				q++
			}
			// Put the fused winner at the higher index: fusing would then
			// change the result.
			if lo, hi := min(p, q), max(p, q); fusedSqDist(x, b) < fusedSqDist(x, a) {
				p, q = lo, hi
			} else {
				p, q = hi, lo
			}
			copy(centers[p*v:], a)
			copy(centers[q*v:], b)
			if got, want := Nearest(x, dimMajor(centers, v, k), k), min(p, q); got != want {
				t.Fatalf("rounding tie at %d and %d: Nearest = %d, want %d", p, q, got, want)
			}
		}
		if found < 32 {
			t.Fatalf("found only %d rounding-sensitive pairs", found)
		}
	})
}

// TestNearestEmpty pins the degenerate shapes: no prototypes and a
// zero-width subspace both encode as 0.
func TestNearestEmpty(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		if got := Nearest([]float64{1}, nil, 0); got != 0 {
			t.Fatalf("K=0: got %d", got)
		}
		if got := Nearest(nil, nil, 32); got != 0 {
			t.Fatalf("V=0: got %d", got)
		}
	})
}

// TestNearestShortCodebookPanics pins the length check: a codebook with
// fewer than V·K entries is a caller bug, not a silent partial result.
func TestNearestShortCodebookPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Nearest accepted a short codebook")
		}
	}()
	Nearest(make([]float64, 4), make([]float64, 63), 16)
}

// TestNearestNoAlloc pins the zero-allocation contract: the kernel runs
// once per subspace inside every exact encoding on the serving path.
func TestNearestNoAlloc(t *testing.T) {
	x := make([]float64, 8)
	ct := make([]float64, 8*128)
	if n := testing.AllocsPerRun(100, func() { Nearest(x, ct, 128) }); n != 0 {
		t.Fatalf("Nearest allocates %v times per run", n)
	}
}

// fuzzPalette maps one fuzz byte to a coordinate: mostly a coarse grid of
// small values, where exact distance ties are common, plus special values.
func fuzzPalette(b byte) float64 {
	switch b {
	case 0xf8:
		return math.Inf(1)
	case 0xf9:
		return math.Inf(-1)
	case 0xfa:
		return math.NaN()
	case 0xfb:
		return 1e200
	case 0xfc:
		return -1e200
	case 0xfd:
		return math.MaxFloat64
	case 0xfe:
		return math.SmallestNonzeroFloat64
	case 0xff:
		return math.Copysign(0, -1)
	}
	return float64(int(b)-124) / 4
}

// FuzzNearest differentially fuzzes the kernel: the input decodes to K
// (byte 0, 1..256), V (byte 1, 1..16) and a mode (byte 2). The remaining
// bytes, reused cyclically, give the V·K point-major prototypes followed by
// the query: one palette byte per value in mode 0, eight raw little-endian
// float64 bits per value in mode 1. Nearest must equal the scalar reference
// scan with the vector gate off and, on hosts that have the kernel, on.
//
// Tier-1 replays the committed corpus in testdata/fuzz/FuzzNearest; `make
// fuzz` and the nightly job run timed rounds on top.
func FuzzNearest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		k, v, raw := 1+int(data[0]), 1+int(data[1])%16, data[2]&1 == 1
		body := data[3:]
		vals := make([]float64, (k+1)*v)
		for i := range vals {
			if raw {
				var w [8]byte
				for n := range w {
					w[n] = body[(8*i+n)%len(body)]
				}
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
			} else {
				vals[i] = fuzzPalette(body[i%len(body)])
			}
		}
		centers, x := vals[:k*v], vals[k*v:]
		ct := dimMajor(centers, v, k)
		want := refNearest(x, centers, k)
		eachKernel(func(vector bool) {
			if got := Nearest(x, ct, k); got != want {
				t.Fatalf("K=%d V=%d vector=%v: Nearest = %d, reference scan = %d", k, v, vector, got, want)
			}
		})
	})
}

package mat

import (
	"math"
	"math/rand"
	"testing"
)

// refSqDist is the per-prototype scalar scan SqDists must reproduce bit for
// bit: one prototype at a time, stored point-major, summed from j = 0.
func refSqDist(x, center []float64) float64 {
	var s float64
	for j, xv := range x {
		d := xv - center[j]
		s += float64(d * d)
	}
	return s
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

// TestSqDistsBitIdentical checks the kernel against the reference across
// prototype counts straddling the 16-wide vector body and its scalar tail,
// with both gate values forced. Besides Gaussian data it plants exact ties
// (a query equal to a prototype, duplicated prototypes), huge values that
// overflow to +Inf, and ±Inf/NaN coordinates on both sides of the subtract.
func TestSqDistsBitIdentical(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e200, -1e200, 0, math.Copysign(0, -1)}
		for _, k := range []int{1, 4, 15, 16, 17, 32, 100, 128, 256} {
			for _, v := range []int{1, 4, 8, 32} {
				for trial := 0; trial < 4; trial++ {
					centers := make([]float64, k*v)
					for i := range centers {
						centers[i] = rng.NormFloat64() * 3
					}
					x := make([]float64, v)
					for j := range x {
						x[j] = rng.NormFloat64() * 3
					}
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
					dst := make([]float64, k)
					SqDists(dst, x, dimMajor(centers, v, k))
					for i := 0; i < k; i++ {
						want := refSqDist(x, centers[i*v:(i+1)*v])
						if math.Float64bits(dst[i]) != math.Float64bits(want) {
							t.Fatalf("K=%d V=%d trial %d: dst[%d] = %v (%#x), want %v (%#x)",
								k, v, trial, i, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	})
}

// TestSqDistsShortCodebookPanics pins the length check: a codebook with
// fewer than V·K entries is a caller bug, not a silent partial result.
func TestSqDistsShortCodebookPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SqDists accepted a short codebook")
		}
	}()
	SqDists(make([]float64, 16), make([]float64, 4), make([]float64, 63))
}

// TestSqDistsNoAlloc pins the zero-allocation contract: the kernel runs
// once per subspace inside every exact encoding on the serving path.
func TestSqDistsNoAlloc(t *testing.T) {
	dst := make([]float64, 128)
	x := make([]float64, 8)
	ct := make([]float64, 8*128)
	if n := testing.AllocsPerRun(100, func() { SqDists(dst, x, ct) }); n != 0 {
		t.Fatalf("SqDists allocates %v times per run", n)
	}
}

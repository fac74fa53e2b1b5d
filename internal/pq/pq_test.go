package pq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dart/internal/mat"
)

func clusteredData(rng *rand.Rand, n, d int, centers int) *mat.Matrix {
	base := mat.New(centers, d).Randn(rng, 5)
	x := mat.New(n, d)
	for i := 0; i < n; i++ {
		c := base.Row(rng.Intn(centers))
		row := x.Row(i)
		for j, v := range c {
			row[j] = v + rng.NormFloat64()*0.1
		}
	}
	return x
}

func TestKMeansRecoversClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := clusteredData(rng, 200, 4, 4)
	centers, assign := KMeans(x.Data, 200, 4, 4, 25, rng)
	if len(centers) != 16 || len(assign) != 200 {
		t.Fatalf("KMeans output sizes %d, %d", len(centers), len(assign))
	}
	// Every point should be close to its assigned center for well-separated
	// clusters with sigma=0.1.
	for i := 0; i < 200; i++ {
		d := sqDist(x.Row(i), centers[assign[i]*4:(assign[i]+1)*4])
		if d > 1.0 {
			t.Fatalf("point %d far from its center: %v", i, d)
		}
	}
}

func TestKMeansAssignmentIsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := clusteredData(rng, 100, 3, 5)
	centers, assign := KMeans(x.Data, 100, 3, 5, 20, rng)
	for i := 0; i < 100; i++ {
		got := sqDist(x.Row(i), centers[assign[i]*3:(assign[i]+1)*3])
		for c := 0; c < 5; c++ {
			if d := sqDist(x.Row(i), centers[c*3:(c+1)*3]); d < got-1e-12 {
				t.Fatalf("point %d assigned to %d but %d is closer", i, assign[i], c)
			}
		}
	}
}

// TestKMeansFinalAssignmentIsFirstNearest pins the exact assignment rule
// behind the Lloyd steps: every row goes to the first strict minimum of the
// point-major sqDist scan over the final centers, on both sides of the
// 16-prototype vector block and with duplicated training rows.
func TestKMeansFinalAssignmentIsFirstNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, s := range []struct{ n, d, k int }{{100, 3, 5}, {300, 8, 16}, {400, 8, 40}, {600, 4, 128}} {
		x := mat.New(s.n, s.d).Randn(rng, 1)
		for i := 1; i < s.n; i += 7 {
			copy(x.Row(i), x.Row(i-1))
		}
		centers, assign := KMeans(x.Data, s.n, s.d, s.k, 10, rng)
		for i := 0; i < s.n; i++ {
			want, bestD := 0, math.Inf(1)
			for c := 0; c < s.k; c++ {
				if dd := sqDist(x.Row(i), centers[c*s.d:(c+1)*s.d]); dd < bestD {
					want, bestD = c, dd
				}
			}
			if assign[i] != want {
				t.Fatalf("n=%d d=%d k=%d: row %d assigned to %d, first nearest is %d", s.n, s.d, s.k, i, assign[i], want)
			}
		}
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := mat.New(50, 2).Randn(rng, 1)
	centers, _ := KMeans(x.Data, 50, 2, 1, 10, rng)
	// Single center must be the mean.
	var m0, m1 float64
	for i := 0; i < 50; i++ {
		m0 += x.At(i, 0)
		m1 += x.At(i, 1)
	}
	m0 /= 50
	m1 /= 50
	if math.Abs(centers[0]-m0) > 1e-9 || math.Abs(centers[1]-m1) > 1e-9 {
		t.Fatalf("1-means center %v, want (%v,%v)", centers, m0, m1)
	}
}

func TestKMeansEncoderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := clusteredData(rng, 300, 8, 6)
	enc := NewKMeansEncoder(8, 2, 8, rng)
	enc.Fit(x)
	if enc.K() != 8 || enc.C() != 2 || enc.SubDim() != 4 {
		t.Fatalf("encoder dims K=%d C=%d V=%d", enc.K(), enc.C(), enc.SubDim())
	}
	// Quantization error should be small on clustered data.
	if mse := QuantizationMSE(enc, x); mse > 0.5 {
		t.Fatalf("k-means quantization MSE %v too high", mse)
	}
}

func TestEncoderIndexInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := mat.New(100, 8).Randn(rng, 1)
	for _, enc := range []Encoder{
		NewKMeansEncoder(8, 4, 4, rng),
		NewLSHEncoder(8, 4, 4, rng),
	} {
		enc.Fit(x)
		idx := make([]int, enc.C())
		for i := 0; i < x.Rows; i++ {
			enc.EncodeRow(x.Row(i), idx)
			for _, k := range idx {
				if k < 0 || k >= enc.K() {
					t.Fatalf("index %d out of [0,%d)", k, enc.K())
				}
			}
		}
	}
}

func TestDotTableApproximatesDotProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := clusteredData(rng, 400, 8, 8)
	enc := NewKMeansEncoder(8, 2, 16, rng)
	enc.Fit(x)
	b := make([]float64, 8)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	table := NewDotTable(enc, b)
	var errSum, magSum float64
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var exact float64
		for j, v := range row {
			exact += v * b[j]
		}
		approx := table.Query(row)
		errSum += math.Abs(approx - exact)
		magSum += math.Abs(exact)
	}
	if rel := errSum / (magSum + 1e-12); rel > 0.1 {
		t.Fatalf("PQ relative dot-product error %v > 10%%", rel)
	}
}

func TestDotTableExactOnPrototypePoints(t *testing.T) {
	// If the query IS a prototype concatenation, the PQ result is exact.
	rng := rand.New(rand.NewSource(7))
	x := clusteredData(rng, 200, 6, 4)
	enc := NewKMeansEncoder(6, 3, 4, rng)
	enc.Fit(x)
	b := []float64{1, -2, 0.5, 3, -1, 2}
	table := NewDotTable(enc, b)
	q := make([]float64, 6)
	copy(q[0:2], enc.Center(0, 1))
	copy(q[2:4], enc.Center(1, 2))
	copy(q[4:6], enc.Center(2, 0))
	var exact float64
	for j, v := range q {
		exact += v * b[j]
	}
	if got := table.Query(q); math.Abs(got-exact) > 1e-9 {
		t.Fatalf("prototype query %v != exact %v", got, exact)
	}
}

func TestDotTableLinearInWeights(t *testing.T) {
	// Table(b1+b2) query == Table(b1) query + Table(b2) query (property).
	rng := rand.New(rand.NewSource(8))
	x := mat.New(100, 4).Randn(rng, 1)
	enc := NewKMeansEncoder(4, 2, 4, rng)
	enc.Fit(x)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b1 := make([]float64, 4)
		b2 := make([]float64, 4)
		sum := make([]float64, 4)
		for i := range b1 {
			b1[i], b2[i] = r.NormFloat64(), r.NormFloat64()
			sum[i] = b1[i] + b2[i]
		}
		q := x.Row(r.Intn(100))
		t1 := NewDotTable(enc, b1).Query(q)
		t2 := NewDotTable(enc, b2).Query(q)
		ts := NewDotTable(enc, sum).Query(q)
		return math.Abs(ts-(t1+t2)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLSHEncoderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := mat.New(50, 4).Randn(rng, 1)
	enc := NewLSHEncoder(4, 2, 8, rng)
	enc.Fit(x)
	a := make([]int, 2)
	b := make([]int, 2)
	enc.EncodeRow(x.Row(3), a)
	enc.EncodeRow(x.Row(3), b)
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatal("LSH encoding not deterministic")
	}
}

func TestLSHEncoderReasonableError(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := clusteredData(rng, 500, 8, 4)
	exact := NewKMeansEncoder(8, 2, 16, rng)
	exact.Fit(x)
	lsh := NewLSHEncoder(8, 2, 16, rng)
	lsh.Fit(x)
	exactMSE := QuantizationMSE(exact, x)
	lshMSE := QuantizationMSE(lsh, x)
	if lshMSE < exactMSE*0.5 {
		t.Fatalf("LSH (%v) should not beat exact k-means (%v) by 2x", lshMSE, exactMSE)
	}
	// But it must still be a meaningful quantizer on clustered data.
	var varTotal float64
	for _, v := range x.Data {
		varTotal += v * v
	}
	varTotal /= float64(len(x.Data))
	if lshMSE > varTotal {
		t.Fatalf("LSH MSE %v worse than predicting zero (var %v)", lshMSE, varTotal)
	}
}

func TestNewLSHEncoderRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for K=6")
		}
	}()
	NewLSHEncoder(8, 2, 6, rand.New(rand.NewSource(1)))
}

func TestSplitCheckPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 7/2 subspaces")
		}
	}()
	NewKMeansEncoder(7, 2, 4, rand.New(rand.NewSource(1)))
}

func TestKMeansEncoderFewerRowsThanK(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := mat.New(3, 4).Randn(rng, 1)
	enc := NewKMeansEncoder(4, 2, 8, rng)
	enc.Fit(x) // must not panic
	idx := make([]int, 2)
	enc.EncodeRow(x.Row(0), idx)
}

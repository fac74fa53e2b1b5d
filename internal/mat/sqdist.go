package mat

import "fmt"

// SqDists computes the squared Euclidean distance from a query x to K
// prototypes stored dimension-major: ct holds the V coordinates of every
// prototype as V consecutive rows of K entries (ct[j*K+k] is coordinate j of
// prototype k, K = len(dst), V = len(x)), and dst[k] receives
// Σ_j (x[j] − ct[j*K+k])², summed over j in ascending order from 0.
//
// The dimension-major layout makes the K distances independent lanes: the
// AVX2 body advances 16 prototypes at once against a broadcast x[j]. It uses
// separate subtract, multiply and add instructions (no FMA), so every lane
// rounds exactly as the scalar loop does — the result is bit-identical with
// the vector kernel on or off, for every input including ±Inf and NaN.
func SqDists(dst, x, ct []float64) {
	k, v := len(dst), len(x)
	if len(ct) < v*k {
		panic(fmt.Sprintf("mat: SqDists codebook has %d entries, want %d (V=%d, K=%d)", len(ct), v*k, v, k))
	}
	i := 0
	if useVectorKernel && k >= 16 && v > 0 {
		i = k &^ 15
		sqDistsAVX(&dst[0], &x[0], &ct[0], v, k, i)
	}
	for ; i < k; i++ {
		var s float64
		for j, xv := range x {
			d := xv - ct[j*k+i]
			s += float64(d * d) // explicit conversion: never fused into an FMA
		}
		dst[i] = s
	}
}

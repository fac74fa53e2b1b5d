package mat

import (
	"fmt"
	"math"
)

// Nearest returns the index of the prototype nearest to the query x in
// squared Euclidean distance. The k prototypes are stored dimension-major:
// ct holds their V = len(x) coordinates as V consecutive rows of k entries
// (ct[j*k+i] is coordinate j of prototype i). The distance of prototype i is
// Σ_j (x[j] − ct[j*k+i])², summed over j in ascending order from 0, and the
// result is the first strict minimum from +Inf: ties go to the lowest index,
// and when no distance is below +Inf (all NaN or +Inf, or k = 0) it is 0.
//
// The dimension-major layout makes the k distances independent lanes: the
// AVX2 body advances 16 prototypes at once against a broadcast x[j] and keeps
// a running first minimum per lane in registers, so no distance is stored.
// It uses separate subtract, multiply and add instructions (no FMA), so every
// lane rounds exactly as the scalar loop does, and each lane updates only on
// an ordered strict less-than. The result is identical with the vector kernel
// on or off, for every input including ±Inf and NaN.
func Nearest(x, ct []float64, k int) int {
	v := len(x)
	if k < 0 || len(ct) < v*k {
		panic(fmt.Sprintf("mat: Nearest codebook has %d entries, want %d (V=%d, K=%d)", len(ct), v*k, v, k))
	}
	i, best, bestD := 0, 0, math.Inf(1)
	if useVectorKernel && k >= 16 && v > 0 {
		i = k &^ 15
		best, bestD = nearestAVX(&x[0], &ct[0], v, k, i)
	}
	for ; i < k; i++ {
		var s float64
		for j, xv := range x {
			d := xv - ct[j*k+i]
			s += float64(d * d) // explicit conversion: never fused into an FMA
		}
		if s < bestD {
			best, bestD = i, s
		}
	}
	return best
}

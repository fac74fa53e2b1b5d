// Package pq implements product quantization (paper Sec. II-B): vectors are
// split into C subspaces, K prototypes are learned per subspace (Eq. 5), dot
// products against fixed weights are precomputed into tables (Eq. 6), and
// queries become encode → lookup → aggregate (Eqs. 7-8).
//
// Two encoders are provided: an exact nearest-prototype encoder (k-means
// prototypes, argmin assignment) and a locality-sensitive-hashing encoder
// whose sign-bit hashing costs O(log K) comparisons per subspace, matching
// the latency model the paper adopts from MADDNESS.
package pq

import (
	"math/rand"

	"dart/internal/mat"
)

// KMeans clusters rows of x (n rows, dim d, flattened row-major) into k
// centers using k-means++ seeding and Lloyd iterations. It returns the
// centers flattened [k*d] and the final assignment of each row.
func KMeans(x []float64, n, d, k, iters int, rng *rand.Rand) ([]float64, []int) {
	if n == 0 || d == 0 || k <= 0 {
		panic("pq: KMeans with empty input or k<=0")
	}
	centers := make([]float64, k*d)
	// k-means++ seeding.
	first := rng.Intn(n)
	copy(centers[:d], x[first*d:(first+1)*d])
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = sqDist(x[i*d:(i+1)*d], centers[:d])
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, v := range minDist {
			total += v
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			var acc float64
			for i, v := range minDist {
				acc += v
				if acc >= r {
					pick = i
					break
				}
			}
		}
		copy(centers[c*d:(c+1)*d], x[pick*d:(pick+1)*d])
		for i := range minDist {
			if dd := sqDist(x[i*d:(i+1)*d], centers[c*d:(c+1)*d]); dd < minDist[i] {
				minDist[i] = dd
			}
		}
	}
	assign := make([]int, n)
	counts := make([]int, k)
	ct := make([]float64, k*d) // dimension-major copy of centers for mat.Nearest
	for it := 0; it < iters; it++ {
		changed := false
		dimMajor(ct, centers, k, d)
		for i := 0; i < n; i++ {
			best := mat.Nearest(x[i*d:(i+1)*d], ct, k)
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		// Recompute centers.
		for i := range centers {
			centers[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			crow := centers[c*d : (c+1)*d]
			row := x[i*d : (i+1)*d]
			for j, v := range row {
				crow[j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random row.
				copy(centers[c*d:(c+1)*d], x[rng.Intn(n)*d:][:d])
				continue
			}
			inv := 1 / float64(counts[c])
			crow := centers[c*d : (c+1)*d]
			for j := range crow {
				crow[j] *= inv
			}
		}
	}
	// Final assignment against final centers.
	dimMajor(ct, centers, k, d)
	for i := 0; i < n; i++ {
		assign[i] = mat.Nearest(x[i*d:(i+1)*d], ct, k)
	}
	return centers, assign
}

// dimMajor writes the k point-major prototypes of length v in src into dst
// laid out [v][k], the codebook layout mat.Nearest streams.
func dimMajor(dst, src []float64, k, v int) {
	for i := 0; i < k; i++ {
		for j, x := range src[i*v : (i+1)*v] {
			dst[j*k+i] = x
		}
	}
}

// sqDist is the point-major squared distance used by k-means++ seeding.
// The explicit conversion keeps the compiler from fusing the multiply-add,
// so it rounds exactly like mat.Nearest on every architecture.
func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += float64(d * d)
	}
	return s
}

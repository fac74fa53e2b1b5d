package pq

import (
	"fmt"
	"math/rand"

	"dart/internal/mat"
)

// Encoder quantizes D-dimensional vectors subspace-by-subspace: Fit learns
// per-subspace prototypes from training rows, EncodeRow maps a query row to
// one prototype index per subspace (Eq. 7), and Center exposes the learned
// prototypes for table construction (Eq. 6).
type Encoder interface {
	// Fit learns prototypes from the rows of x (one vector per row).
	Fit(x *mat.Matrix)
	// EncodeRow writes the prototype index of each subspace into out (len C).
	EncodeRow(row []float64, out []int)
	// Center returns the prototype vector of subspace c, index k (len V).
	Center(c, k int) []float64
	// K returns the number of prototypes per subspace.
	K() int
	// C returns the number of subspaces.
	C() int
	// SubDim returns the subspace dimension V = D/C.
	SubDim() int
}

// splitCheck validates the subspace decomposition.
func splitCheck(d, c int) int {
	if c <= 0 || d <= 0 || d%c != 0 {
		panic(fmt.Sprintf("pq: dimension %d not divisible into %d subspaces", d, c))
	}
	return d / c
}

// KMeansEncoder learns prototypes with per-subspace k-means and assigns
// queries to the exact nearest prototype (Eqs. 5 and 7).
//
// Encoding is the serving hot path, so besides the point-major centers it
// keeps a derived dimension-major copy of each subspace's codebook, which
// mat.Nearest streams once per subspace, computing the K distances as
// independent vector lanes and keeping a running first minimum per lane in
// registers. The copy is rebuilt by Fit and UnmarshalEncoder and never
// serialized. The distances are bit-identical to the per-prototype scalar
// scan and ties go to the lowest index, so encodings do not depend on
// whether the vector kernel is available.
type KMeansEncoder struct {
	d, c, v, k int
	iters      int
	rng        *rand.Rand
	centers    []float64 // [c][k][v]
	centersT   []float64 // [c][v][k]: dimension-major copy of centers
}

// NewKMeansEncoder creates an exact encoder for D-dim vectors, C subspaces
// and K prototypes per subspace.
func NewKMeansEncoder(d, c, k int, rng *rand.Rand) *KMeansEncoder {
	v := splitCheck(d, c)
	return &KMeansEncoder{d: d, c: c, v: v, k: k, iters: 15, rng: rng}
}

// Fit learns k-means prototypes in each subspace.
func (e *KMeansEncoder) Fit(x *mat.Matrix) {
	if x.Cols != e.d {
		panic(fmt.Sprintf("pq: Fit on %d-dim rows, encoder expects %d", x.Cols, e.d))
	}
	n := x.Rows
	e.centers = make([]float64, e.c*e.k*e.v)
	sub := make([]float64, n*e.v)
	for c := 0; c < e.c; c++ {
		for i := 0; i < n; i++ {
			copy(sub[i*e.v:(i+1)*e.v], x.Row(i)[c*e.v:(c+1)*e.v])
		}
		k := e.k
		if k > n {
			k = n
		}
		centers, _ := KMeans(sub, n, e.v, k, e.iters, e.rng)
		copy(e.centers[c*e.k*e.v:], centers)
		// If k < K (tiny training sets), replicate the last center.
		for kk := k; kk < e.k; kk++ {
			copy(e.centers[(c*e.k+kk)*e.v:(c*e.k+kk+1)*e.v],
				e.centers[(c*e.k+k-1)*e.v:(c*e.k+k)*e.v])
		}
	}
	e.transposeCenters()
}

// transposeCenters rebuilds centersT from centers.
func (e *KMeansEncoder) transposeCenters() {
	e.centersT = make([]float64, len(e.centers))
	n := e.v * e.k
	for c := 0; c < e.c; c++ {
		dimMajor(e.centersT[c*n:(c+1)*n], e.centers[c*n:(c+1)*n], e.k, e.v)
	}
}

// EncodeRow assigns each subspace of row to its nearest prototype.
func (e *KMeansEncoder) EncodeRow(row []float64, out []int) {
	if len(row) != e.d || len(out) != e.c {
		panic(fmt.Sprintf("pq: EncodeRow(%d-dim row, %d indices), encoder expects (%d, %d)",
			len(row), len(out), e.d, e.c))
	}
	n := e.v * e.k
	for c := 0; c < e.c; c++ {
		out[c] = mat.Nearest(row[c*e.v:(c+1)*e.v], e.centersT[c*n:(c+1)*n], e.k)
	}
}

// Center returns prototype (c, k).
func (e *KMeansEncoder) Center(c, k int) []float64 {
	base := (c*e.k + k) * e.v
	return e.centers[base : base+e.v]
}

// K returns prototypes per subspace.
func (e *KMeansEncoder) K() int { return e.k }

// C returns the subspace count.
func (e *KMeansEncoder) C() int { return e.c }

// SubDim returns the subspace dimension.
func (e *KMeansEncoder) SubDim() int { return e.v }

// LSHEncoder hashes each subspace with log2(K) random-hyperplane sign bits;
// the bucket index is the concatenated bit pattern and the prototype of a
// bucket is the centroid of the training vectors hashed into it. Encoding
// costs O(log K) dot products of length V, which is the latency the paper's
// complexity model assumes (Sec. V-C).
type LSHEncoder struct {
	d, c, v, k, bits int
	rng              *rand.Rand
	planes           []float64 // [c][bits][v] hyperplane normals
	centers          []float64 // [c][k][v] bucket centroids
}

// NewLSHEncoder creates a hashing encoder; k must be a power of two.
func NewLSHEncoder(d, c, k int, rng *rand.Rand) *LSHEncoder {
	v := splitCheck(d, c)
	bits := 0
	for 1<<bits < k {
		bits++
	}
	if 1<<bits != k {
		panic(fmt.Sprintf("pq: LSH encoder needs power-of-two K, got %d", k))
	}
	return &LSHEncoder{d: d, c: c, v: v, k: k, bits: bits, rng: rng}
}

// Fit draws random hyperplanes and computes bucket centroids.
func (e *LSHEncoder) Fit(x *mat.Matrix) {
	if x.Cols != e.d {
		panic(fmt.Sprintf("pq: Fit on %d-dim rows, encoder expects %d", x.Cols, e.d))
	}
	e.planes = make([]float64, e.c*e.bits*e.v)
	for i := range e.planes {
		e.planes[i] = e.rng.NormFloat64()
	}
	e.centers = make([]float64, e.c*e.k*e.v)
	counts := make([]int, e.c*e.k)
	idx := make([]int, e.c)
	for i := 0; i < x.Rows; i++ {
		e.EncodeRow(x.Row(i), idx)
		for c, k := range idx {
			counts[c*e.k+k]++
			crow := e.centers[(c*e.k+k)*e.v : (c*e.k+k+1)*e.v]
			sub := x.Row(i)[c*e.v : (c+1)*e.v]
			for j, v := range sub {
				crow[j] += v
			}
		}
	}
	// Normalise; empty buckets fall back to the subspace mean.
	subMean := make([]float64, e.c*e.v)
	for i := 0; i < x.Rows; i++ {
		for c := 0; c < e.c; c++ {
			sub := x.Row(i)[c*e.v : (c+1)*e.v]
			for j, v := range sub {
				subMean[c*e.v+j] += v
			}
		}
	}
	if x.Rows > 0 {
		inv := 1 / float64(x.Rows)
		for i := range subMean {
			subMean[i] *= inv
		}
	}
	for c := 0; c < e.c; c++ {
		for k := 0; k < e.k; k++ {
			crow := e.centers[(c*e.k+k)*e.v : (c*e.k+k+1)*e.v]
			if n := counts[c*e.k+k]; n > 0 {
				inv := 1 / float64(n)
				for j := range crow {
					crow[j] *= inv
				}
			} else {
				copy(crow, subMean[c*e.v:(c+1)*e.v])
			}
		}
	}
}

// EncodeRow hashes each subspace of row to its bucket index.
func (e *LSHEncoder) EncodeRow(row []float64, out []int) {
	if len(row) != e.d || len(out) != e.c {
		panic(fmt.Sprintf("pq: EncodeRow(%d-dim row, %d indices), encoder expects (%d, %d)",
			len(row), len(out), e.d, e.c))
	}
	for c := 0; c < e.c; c++ {
		sub := row[c*e.v : (c+1)*e.v]
		var bucket int
		for b := 0; b < e.bits; b++ {
			plane := e.planes[(c*e.bits+b)*e.v : (c*e.bits+b+1)*e.v]
			var dot float64
			for j, v := range sub {
				dot += v * plane[j]
			}
			bucket <<= 1
			if dot >= 0 {
				bucket |= 1
			}
		}
		out[c] = bucket
	}
}

// Center returns prototype (c, k).
func (e *LSHEncoder) Center(c, k int) []float64 {
	base := (c*e.k + k) * e.v
	return e.centers[base : base+e.v]
}

// K returns prototypes per subspace.
func (e *LSHEncoder) K() int { return e.k }

// C returns the subspace count.
func (e *LSHEncoder) C() int { return e.c }

// SubDim returns the subspace dimension.
func (e *LSHEncoder) SubDim() int { return e.v }

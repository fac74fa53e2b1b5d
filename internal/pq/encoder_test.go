package pq

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dart/internal/mat"
)

// scanEncode is the reference exact encoder: one point-major sqDist per
// prototype, first strict minimum from +Inf.
func scanEncode(e *KMeansEncoder, row []float64, out []int) {
	for c := 0; c < e.c; c++ {
		sub := row[c*e.v : (c+1)*e.v]
		best, bestD := 0, math.Inf(1)
		for k := 0; k < e.k; k++ {
			if dd := sqDist(sub, e.Center(c, k)); dd < bestD {
				best, bestD = k, dd
			}
		}
		out[c] = best
	}
}

// encodeProbes returns rows exercising the encoder: random rows, training
// rows, and rows assembled from prototypes (exact zero-distance ties with any
// duplicated prototype).
func encodeProbes(e *KMeansEncoder, train *mat.Matrix, rng *rand.Rand) [][]float64 {
	var rows [][]float64
	for i := 0; i < 64; i++ {
		r := make([]float64, e.d)
		for j := range r {
			r[j] = rng.NormFloat64() * 2
		}
		rows = append(rows, r)
	}
	for i := 0; i < train.Rows; i += 1 + train.Rows/64 {
		rows = append(rows, train.Row(i))
	}
	for k := 0; k < e.k; k++ {
		r := make([]float64, e.d)
		for c := 0; c < e.c; c++ {
			copy(r[c*e.v:], e.Center(c, (k+c)%e.k))
		}
		rows = append(rows, r)
	}
	return rows
}

// sameEncoding asserts enc.EncodeRow matches want on every probe row.
func sameEncoding(t *testing.T, name string, enc Encoder, rows [][]float64, want func([]float64, []int)) {
	t.Helper()
	got, ref := make([]int, enc.C()), make([]int, enc.C())
	for i, r := range rows {
		enc.EncodeRow(r, got)
		want(r, ref)
		for c := range got {
			if got[c] != ref[c] {
				t.Fatalf("%s: row %d subspace %d encodes to %d, want %d", name, i, c, got[c], ref[c])
			}
		}
	}
}

// TestKMeansEncodeRowMatchesScan is the property behind the distance
// kernel: EncodeRow equals the per-prototype scalar scan on every shape,
// including the exact ties of Fit with fewer rows than K (the last center
// is replicated and the lowest index must win).
func TestKMeansEncodeRowMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, d := range []int{8, 10, 16, 64} {
		for _, c := range []int{1, 2, 4} {
			if d%c != 0 {
				continue
			}
			for _, k := range []int{8, 24, 128} {
				for _, n := range []int{300, k / 2} {
					name := fmt.Sprintf("D%d_C%d_K%d_n%d", d, c, k, n)
					x := mat.New(n, d).Randn(rng, 1)
					enc := NewKMeansEncoder(d, c, k, rng)
					enc.Fit(x)
					rows := encodeProbes(enc, x, rng)
					sameEncoding(t, name, enc, rows, func(r []float64, out []int) { scanEncode(enc, r, out) })
					if n < k {
						// Every replica of the last fitted center ties at
						// distance 0; the first copy must win.
						idx := make([]int, c)
						row := make([]float64, d)
						for ci := 0; ci < c; ci++ {
							copy(row[ci*enc.v:], enc.Center(ci, k-1))
						}
						enc.EncodeRow(row, idx)
						for ci, got := range idx {
							if got != n-1 {
								t.Fatalf("%s: replicated center tie in subspace %d resolved to %d, want %d", name, ci, got, n-1)
							}
						}
					}
				}
			}
		}
	}
}

// TestKMeansEncodeRowNonFinite pins the NaN/Inf behaviour: a subspace whose
// distances are all NaN or +Inf never beats the +Inf start and encodes as
// index 0, exactly as the scalar scan does.
func TestKMeansEncodeRowNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, k := range []int{8, 24, 128} {
		x := mat.New(300, 16).Randn(rng, 1)
		enc := NewKMeansEncoder(16, 2, k, rng)
		enc.Fit(x)
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			row := append([]float64(nil), x.Row(0)...)
			row[3] = bad // subspace 0 only
			got, ref := make([]int, 2), make([]int, 2)
			enc.EncodeRow(row, got)
			scanEncode(enc, row, ref)
			if got[0] != 0 || ref[0] != 0 || got[1] != ref[1] {
				t.Fatalf("K=%d x=%v: encoded %v, scan %v; want subspace 0 at index 0", k, bad, got, ref)
			}
		}
	}
}

// TestKMeansEncoderLargeK covers a K beyond the served shapes, with a
// scalar tail after the vector body (296 = 18·16 + 8).
func TestKMeansEncoderLargeK(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := mat.New(600, 8).Randn(rng, 1)
	enc := NewKMeansEncoder(8, 2, 296, rng)
	enc.Fit(x)
	sameEncoding(t, "K296", enc, encodeProbes(enc, x, rng), func(r []float64, out []int) { scanEncode(enc, r, out) })
}

// TestKMeansEncoderStateRoundTrip proves the dimension-major copy is
// derived state: it is rebuilt by UnmarshalEncoder (the decoded encoder
// encodes every probe exactly like the fitted one) and never serialized
// (the gob bytes of MarshalEncoder are unchanged from the format before
// the copy existed, pinned by their SHA-256).
func TestKMeansEncoderStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := mat.New(200, 16)
	for i := range x.Data {
		x.Data[i] = rng.Float64()*4 - 2
	}
	enc := NewKMeansEncoder(16, 2, 24, rng)
	enc.Fit(x)
	st, err := MarshalEncoder(enc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		t.Fatal(err)
	}
	const golden = "799bea0e2f701ffc223b003f7f2bb8b7fe3be0cb32cfd68da509a6500c10484a"
	if sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); sum != golden {
		t.Fatalf("MarshalEncoder bytes changed: sha256 %s, want %s", sum, golden)
	}
	var decoded any
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalEncoder(decoded)
	if err != nil {
		t.Fatal(err)
	}
	sameEncoding(t, "decoded", back, encodeProbes(enc, x, rng), enc.EncodeRow)
}

// TestKMeansEncodeRowNoAlloc pins the zero-allocation contract of exact
// encoding at the served shape (no distance is stored anywhere).
func TestKMeansEncodeRowNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x := mat.New(300, 16).Randn(rng, 1)
	enc := NewKMeansEncoder(16, 2, 128, rng)
	enc.Fit(x)
	idx := make([]int, 2)
	if n := testing.AllocsPerRun(100, func() { enc.EncodeRow(x.Row(1), idx) }); n != 0 {
		t.Fatalf("EncodeRow allocates %v times per run", n)
	}
}

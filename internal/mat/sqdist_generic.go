//go:build !amd64

package mat

// sqDistsAVX is never called when useVectorKernel is false; SqDists falls
// back to its portable scalar loop, which produces bit-identical results.
func sqDistsAVX(dst, x, ct *float64, v, k, k16 int) {
	panic("mat: distance vector kernel unavailable on this architecture")
}

//go:build !amd64

package mat

// nearestAVX is never called when useVectorKernel is false; Nearest falls
// back to its portable scalar loop, which returns the same index.
func nearestAVX(x, ct *float64, v, k, k16 int) (best int, bestD float64) {
	panic("mat: nearest-prototype vector kernel unavailable on this architecture")
}

//go:build amd64

package mat

// nearestAVX returns the first nearest of the first k16 prototypes of the
// dimension-major codebook ct (row stride k) to x (len v), and its squared
// distance; when every distance is NaN or +Inf it returns (0, +Inf). v must
// be positive and k16 a positive multiple of 16 no larger than k. It shares
// the useVectorKernel gate with the other kernels. Implemented in
// nearest_amd64.s.
//
//go:noescape
func nearestAVX(x, ct *float64, v, k, k16 int) (best int, bestD float64)

//go:build amd64

package mat

// sqDistsAVX writes the squared distances of x (len v) to the first k16
// prototypes of the dimension-major codebook ct (row stride k) into dst.
// v must be positive and k16 a positive multiple of 16 no larger than k. It
// shares the useVectorKernel gate with the other kernels. Implemented in
// sqdist_amd64.s.
//
//go:noescape
func sqDistsAVX(dst, x, ct *float64, v, k, k16 int)

//go:build !amd64

package mat

// eachKernel calls fn once: without the assembly kernel the scalar fallback
// is the only implementation.
func eachKernel(fn func(vector bool)) {
	fn(false)
}

//go:build amd64

package mat

// eachKernel calls fn once with the scalar fallback forced and, on hosts
// with AVX2, once more with the vector kernel, restoring the gate after.
func eachKernel(fn func(vector bool)) {
	saved := useVectorKernel
	defer func() { useVectorKernel = saved }()
	useVectorKernel = false
	fn(false)
	if saved {
		useVectorKernel = true
		fn(true)
	}
}

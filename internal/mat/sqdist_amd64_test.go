//go:build amd64

package mat

import "testing"

// forEachKernel runs fn once with the scalar fallback forced and, on hosts
// with AVX2, once more with the vector kernel, restoring the gate after.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	saved := useVectorKernel
	defer func() { useVectorKernel = saved }()
	useVectorKernel = false
	t.Run("scalar", fn)
	if saved {
		useVectorKernel = true
		t.Run("vector", fn)
	}
}

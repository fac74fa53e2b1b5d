//go:build !amd64

package mat

import "testing"

// forEachKernel runs fn once: without the assembly kernel the scalar
// fallback is the only implementation.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	t.Run("scalar", fn)
}

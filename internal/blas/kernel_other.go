//go:build !amd64

package blas

// simdPrecisions reports that no SIMD leaves exist on this architecture;
// the portable descriptors run everywhere.
func simdPrecisions() (p32 *precision[float32], p64 *precision[float64], ok bool) {
	return nil, nil, false
}

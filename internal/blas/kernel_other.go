//go:build !amd64

package blas

// simdPrecisions reports that no SIMD leaves exist on this architecture;
// the portable descriptors run everywhere.
func simdPrecisions() []simdLevel { return nil }

//go:build race

package blas

// raceEnabled reports whether the race detector instruments this test
// binary. The allocation guard consults it: the detector's runtime
// allocates on its own account, so a count calibrated for production
// code would only measure the instrumentation.
const raceEnabled = true

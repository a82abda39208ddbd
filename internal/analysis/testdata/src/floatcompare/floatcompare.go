// Fixture for the floatcompare analyzer: seeded FP-equality bugs with
// want expectations, the allowed sentinel/NaN idioms, and the two
// suppression directive forms.
package fixture

import "math"

func violations(got, want float64, xs []float32) bool {
	if got == want { // want `floating-point == comparison`
		return true
	}
	if got != 42.0 { // want `floating-point != comparison`
		return false
	}
	if xs[0] == xs[1] { // want `floating-point == comparison`
		return true
	}
	var threshold float64 = 0.5
	return got == threshold // want `floating-point == comparison`
}

func allowedSentinels(alpha, beta float64) bool {
	if beta == 0 { // Beta=0 contract: exact sentinel, allowed
		return true
	}
	if beta != 1 {
		return false
	}
	return alpha == 0.0
}

func allowedNaNProbe(x float64) bool {
	return x != x
}

func allowedTolerance(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12
}

func suppressed(a, b float64) bool {
	if a == b { //blobvet:allow floatcompare -- exercised by the framework test
		return true
	}
	//blobvet:allow floatcompare -- standalone form covers the next line
	return a != b
}

func intsAreFine(i, j int) bool { return i == j }

// Generic kernels over float type parameters are checked like their
// concrete float32/float64 counterparts.
func genericViolation[T float32 | float64](a, b T) bool {
	return a == b // want `floating-point == comparison`
}

func genericSentinel[T float32 | float64](beta T) bool {
	return beta == 0 // Beta=0 contract on a generic kernel: still allowed
}

func genericNonFloat[T int | int64](a, b T) bool { return a == b }

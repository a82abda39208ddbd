package blobvet

import "go/types"

// IsFloat reports whether t is a floating-point type as the analyzers
// mean it: a basic float (float32, float64 or an untyped float constant),
// or a type parameter whose type set holds only floats, such as the T of
// a generic kernel declared over [T float32 | float64]. Without the
// second case generic kernel code would be invisible to every check that
// keys on float operands.
func IsFloat(t types.Type) bool {
	if tp, ok := t.(*types.TypeParam); ok {
		return onlyFloats(tp.Constraint())
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// onlyFloats reports whether every type in the type set of the
// constraint element t is a float. An interface's type set is the
// intersection of its embedded elements, so one float-only element is
// enough; a union is float-only when each of its terms is.
func onlyFloats(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsFloat != 0
	case *types.Union:
		for i := 0; i < u.Len(); i++ {
			if !onlyFloats(u.Term(i).Type()) {
				return false
			}
		}
		return u.Len() > 0
	case *types.Interface:
		for i := 0; i < u.NumEmbeddeds(); i++ {
			if onlyFloats(u.EmbeddedType(i)) {
				return true
			}
		}
	}
	return false
}

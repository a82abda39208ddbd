// Fixture for the errcontract analyzer. Loaded as
// "fixture/internal/sim/backend" or "fixture/internal/service" it yields
// the same findings, since the rule covers all of internal/; as
// "fixture/pkg/outside" the analyzer is out of scope and silent.
package backend

import (
	"errors"
	"fmt"
)

// ErrBad is the sanctioned shape for a root cause: a package sentinel.
var ErrBad = errors.New("backend: bad input")

// Flatten severs the chain: %v stringifies the cause, so errors.Is and
// resilience.IsTransient stop seeing it.
func Flatten(err error) error {
	return fmt.Errorf("consult failed: %v", err) // want `Flatten returns fmt\.Errorf without %w`
}

// Inline mints an unmatchable one-off error.
func Inline() error {
	return errors.New("backend: something went wrong") // want `Inline returns an inline errors\.New; hoist it to a package-level sentinel`
}

// Wrap keeps the chain intact; %w is the contract.
func Wrap(err error) error {
	return fmt.Errorf("consult failed: %w", err)
}

// Sentinel wraps the package sentinel; callers can errors.Is it.
func Sentinel(name string) error {
	return fmt.Errorf("%w: %q", ErrBad, name)
}

// unexported boundaries are not the exported surface.
func flattenPrivately(err error) error {
	return fmt.Errorf("internal detail: %v", err)
}

// ClosureReturn: the closure's return is not the exported boundary.
func ClosureReturn() func() error {
	return func() error {
		return errors.New("closure-local")
	}
}

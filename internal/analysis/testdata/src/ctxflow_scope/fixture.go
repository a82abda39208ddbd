// Fixture isolating ctxflow rule 3: one deaf loop, nothing else. Loaded
// as "fixture/internal/core" it produces exactly one finding; loaded as
// "fixture/internal/csvio" (outside the loop-scope packages) it is clean.
package core

import "context"

func work() {}

// Drain loops and calls without consulting its context.
func Drain(ctx context.Context, n int) {
	for i := 0; i < n; i++ { // want `loop in Drain never consults its context`
		work()
	}
}

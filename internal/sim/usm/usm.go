// Package usm models Unified Shared Memory data movement: instead of
// explicit copies, pages migrate to the device on first touch, and vendor
// runtime heuristics decide how well subsequent accesses behave.
//
// The paper's findings this model reproduces:
//
//   - On DAWN, USM performs on par with Transfer-Once (§IV-A): Intel's
//     migration moves data at close to link speed with little residual cost.
//   - On LUMI, USM "consistently has much higher offload thresholds ...
//     this poor USM performance must be a result of the vendor's page
//     migration heuristics" (§IV-A): migration is slower than a bulk copy
//     AND a fraction of pages keeps re-faulting every iteration.
//   - On Isambard-AI, USM lags Transfer-Once at one iteration but the gap
//     "quickly closes as the iteration count increases" (§IV-A): a
//     first-touch cost with negligible residual.
//   - Without HSA_XNACK=1 on AMD, no page migration occurs at all and every
//     device access crosses the interconnect, which has been measured to
//     cost up to 40x in transfer performance (§IV).
package usm

import (
	"math"

	"repro/internal/sim/hw"
)

// Profile captures one vendor's page-migration behaviour.
type Profile struct {
	Name string
	// PageBytes is the migration granularity.
	PageBytes int64
	// FaultLatencyUS is the fixed cost of servicing one page fault.
	FaultLatencyUS float64
	// MigrationBWFactor is the fraction of the link bandwidth achieved
	// while migrating (bulk copies reach 1.0; migration is usually worse).
	MigrationBWFactor float64
	// ResidualFaultFraction is the fraction of the working set that
	// re-faults on every iteration after the first (eviction/thrashing
	// heuristics). 0 means the data stays resident.
	ResidualFaultFraction float64
	// XnackEnabled reports whether the device can signal page faults to the
	// host (HSA_XNACK=1 on AMD). When false, pages never migrate and all
	// device accesses stream across the link at XnackDisabledPenalty x cost.
	XnackEnabled         bool
	XnackDisabledPenalty float64
}

// IntelUSM migrates efficiently: on DAWN, USM tracks Transfer-Once.
var IntelUSM = Profile{
	Name:              "Intel USM",
	PageBytes:         64 << 10,
	FaultLatencyUS:    1.5,
	MigrationBWFactor: 0.92,
	XnackEnabled:      true,
}

// AMDUSM (HSA_XNACK=1) migrates slowly and keeps re-faulting a share of the
// working set each iteration.
var AMDUSM = Profile{
	Name:                  "AMD USM (HSA_XNACK=1)",
	PageBytes:             4 << 10,
	FaultLatencyUS:        2.5,
	MigrationBWFactor:     0.30,
	ResidualFaultFraction: 0.05,
	XnackEnabled:          true,
	XnackDisabledPenalty:  40,
}

// AMDUSMNoXnack is the HSA_XNACK unset configuration: no migration, every
// access crosses the interconnect (up to 40x slower transfers, §IV).
var AMDUSMNoXnack = Profile{
	Name:                 "AMD USM (HSA_XNACK=0)",
	PageBytes:            4 << 10,
	FaultLatencyUS:       2.5,
	MigrationBWFactor:    0.40,
	XnackEnabled:         false,
	XnackDisabledPenalty: 40,
}

// NVIDIAUSM on GH200: a visible first-touch cost, negligible residual.
var NVIDIAUSM = Profile{
	Name:                  "NVIDIA USM (GH200)",
	PageBytes:             64 << 10,
	FaultLatencyUS:        0.2,
	MigrationBWFactor:     0.90,
	ResidualFaultFraction: 0.004,
	XnackEnabled:          true,
}

// MoveSeconds returns the total modeled data-movement time for a USM run
// touching inBytes of input and outBytes of output over iters iterations of
// device compute.
//
// XNACK enabled: the first iteration faults the whole input across the link
// at migration speed; every later iteration re-faults ResidualFaultFraction
// of it; the output migrates back to the host once at the end (first host
// touch after the run).
//
// XNACK disabled: nothing migrates; the device streams the input across the
// link every iteration at the penalty factor.
func (p Profile) MoveSeconds(link hw.LinkSpec, inBytes, outBytes int64, iters int) float64 {
	if iters < 1 {
		return 0
	}
	if !p.XnackEnabled {
		per := p.streamUS(link, inBytes+outBytes) * p.XnackDisabledPenalty
		return per * float64(iters) * 1e-6
	}
	first := p.migrateUS(link, inBytes)
	residual := p.migrateUS(link, int64(float64(inBytes)*p.ResidualFaultFraction)) * float64(iters-1)
	out := p.migrateUS(link, outBytes)
	return (first + residual + out) * 1e-6
}

// ResidentMoveSeconds is MoveSeconds for operands whose first touch has
// already been paid: the working set is resident on the device, so only
// the residual re-fault fraction moves each iteration, plus the output's
// migration back to the host. An automatic-offload runtime that keeps
// dispatching the same operands (internal/offload's residency-aware case)
// pays this instead of the full first-touch cost.
//
// XNACK disabled is unchanged from MoveSeconds: nothing is ever resident,
// every iteration streams across the link at the penalty factor.
func (p Profile) ResidentMoveSeconds(link hw.LinkSpec, inBytes, outBytes int64, iters int) float64 {
	if iters < 1 {
		return 0
	}
	if !p.XnackEnabled {
		return p.MoveSeconds(link, inBytes, outBytes, iters)
	}
	residual := p.migrateUS(link, int64(float64(inBytes)*p.ResidualFaultFraction)) * float64(iters)
	out := p.migrateUS(link, outBytes)
	return (residual + out) * 1e-6
}

// migrateUS returns the microseconds to migrate bytes: per-page fault
// service plus the data itself at migration bandwidth.
func (p Profile) migrateUS(link hw.LinkSpec, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	pages := (bytes + p.PageBytes - 1) / p.PageBytes
	// Fault handling pipelines with the data stream; the runtime batches
	// faults, so charge a sub-linear (square-root) fault cost.
	faultUS := p.FaultLatencyUS * math.Sqrt(float64(pages))
	dataUS := float64(bytes) / (link.BWGBs * p.MigrationBWFactor * 1e3)
	return link.LatencyUS + faultUS + dataUS
}

// streamUS is a plain remote stream across the link (no migration).
func (p Profile) streamUS(link hw.LinkSpec, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return link.LatencyUS + float64(bytes)/(link.BWGBs*1e3)
}

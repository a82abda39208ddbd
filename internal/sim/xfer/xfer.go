// Package xfer defines the three host-device data movement strategies of
// GPU-BLOB (§III-B2) and the byte accounting for GEMM and GEMV under each:
//
//   - TransferOnce: inputs (A, B, C for GEMM; A, x, y for GEMV) are copied
//     to the device before all i iterations, and the output (C; y) copied
//     back once afterwards. Characterises high data re-use.
//   - TransferAlways: inputs copied to and output copied from the device
//     around every single iteration. Characterises accelerated BLAS
//     interleaved with host compute phases.
//   - Unified: unified shared memory; no explicit copies, data moves by page
//     migration (modeled in package usm).
//
// GPU time measurements in the paper include data movement (§III-A); the
// same holds for every strategy here.
package xfer

import (
	"errors"
	"fmt"
)

// ErrUnknownStrategy is the sentinel wrapped by ParseStrategy for
// unrecognized tokens, so callers can errors.Is the condition instead of
// string-matching (errcontract: errors crossing the package boundary stay
// classifiable).
var ErrUnknownStrategy = errors.New("xfer: unknown strategy")

// Strategy identifies a data transfer paradigm.
type Strategy int

// The three strategies of §III-B2.
const (
	TransferOnce Strategy = iota
	TransferAlways
	Unified
)

// Strategies lists all strategies in presentation order (paper tables use
// Once / Always / USM columns).
var Strategies = []Strategy{TransferOnce, TransferAlways, Unified}

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case TransferOnce:
		return "Once"
	case TransferAlways:
		return "Always"
	case Unified:
		return "USM"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy converts a CLI/CSV token into a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "Once", "once", "transfer-once":
		return TransferOnce, nil
	case "Always", "always", "transfer-always":
		return TransferAlways, nil
	case "USM", "usm", "unified":
		return Unified, nil
	}
	return 0, fmt.Errorf("%w %q", ErrUnknownStrategy, s)
}

// GemmBytes returns the bytes moved host-to-device and device-to-host for
// ONE round of explicit GEMM transfers: A (m x k), B (k x n) and C (m x n)
// up; C down.
func GemmBytes(elemSize, m, n, k int) (toDev, fromDev int64) {
	es := int64(elemSize)
	toDev = (int64(m)*int64(k) + int64(k)*int64(n) + int64(m)*int64(n)) * es
	fromDev = int64(m) * int64(n) * es
	return toDev, fromDev
}

// GemvBytes returns the bytes moved for ONE round of explicit GEMV
// transfers: A (m x n), x (n) and y (m) up; y down.
func GemvBytes(elemSize, m, n int) (toDev, fromDev int64) {
	es := int64(elemSize)
	toDev = (int64(m)*int64(n) + int64(n) + int64(m)) * es
	fromDev = int64(m) * es
	return toDev, fromDev
}

// Rounds returns how many explicit transfer rounds the strategy performs
// for i iterations: 1 for TransferOnce, i for TransferAlways, 0 for Unified
// (whose movement is modeled by page migration instead).
func Rounds(s Strategy, iters int) int {
	switch s {
	case TransferOnce:
		return 1
	case TransferAlways:
		return iters
	default:
		return 0
	}
}

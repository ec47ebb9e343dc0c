// Package swar holds the SIMD-within-a-register (SWAR) tier of the
// paper's Table 2: arithmetic on four 16-bit lanes packed into a uint64,
// and the 4- and 8-lane group kernels built on it (ScoreGroup). It is
// this reproduction's substitute for the SSE/SSE2 multimedia extensions
// of Section 4.1: the kernels execute the same lane-parallel dataflow —
// four (or eight, using two words) interleaved alignment matrices per
// operation — without hardware intrinsics, which Go does not expose.
//
// The package is paper-only: cmd/table2 times it against the
// production kernels, which live in package multialign. Nothing on the
// engine path imports it.
//
// Unless stated otherwise, lane values must be in [0, 2^15): the lane's
// top bit is the guard bit the comparison trick needs. The group kernels
// guarantee this by capping scores at SatLimit and clamping all
// intermediates at zero (local alignment scores are non-negative, and
// the Gotoh gap accumulators can be floor-clamped at zero without
// changing any result).
package swar

// Lanes is the number of 16-bit lanes per word.
const Lanes = 4

// H masks the guard (top) bit of every lane.
const H uint64 = 0x8000_8000_8000_8000

// ones replicates a 16-bit value into every lane when multiplied.
const ones uint64 = 0x0001_0001_0001_0001

// Splat broadcasts v into all four lanes.
func Splat(v uint16) uint64 {
	return uint64(v) * ones
}

// Pack assembles a word from four lane values (lane 0 in the least
// significant bits).
func Pack(v [Lanes]uint16) uint64 {
	return uint64(v[0]) | uint64(v[1])<<16 | uint64(v[2])<<32 | uint64(v[3])<<48
}

// Unpack splits a word into its four lane values.
func Unpack(w uint64) [Lanes]uint16 {
	return [Lanes]uint16{
		uint16(w),
		uint16(w >> 16),
		uint16(w >> 32),
		uint16(w >> 48),
	}
}

// Lane extracts lane i (0-based).
func Lane(w uint64, i int) uint16 {
	return uint16(w >> (16 * uint(i)))
}

// AddMod adds per lane, modulo 2^16, with no carry between lanes.
// Operands may use all 16 bits.
func AddMod(a, b uint64) uint64 {
	return ((a &^ H) + (b &^ H)) ^ ((a ^ b) & H)
}

// SubMod subtracts per lane, modulo 2^16, with no borrow between lanes.
// Operands may use all 16 bits.
func SubMod(a, b uint64) uint64 {
	return ((a | H) - (b &^ H)) ^ ((a ^ ^b) & H)
}

// GEMask returns 0xFFFF in every lane where a >= b and 0x0000 elsewhere.
// Both operands must have the guard bit clear (values < 2^15).
func GEMask(a, b uint64) uint64 {
	m := ((a | H) - b) & H
	return (m - (m >> 15)) | m
}

// Select returns a where mask is 0xFFFF and b where mask is 0x0000.
// mask must be a per-lane all-or-nothing mask (as produced by GEMask).
func Select(mask, a, b uint64) uint64 {
	return (a & mask) | (b &^ mask)
}

// Max returns the per-lane maximum. Values must be < 2^15.
// This is the packed MAX operator the paper highlights as a key source
// of the SSE speedup (five MAX operations per matrix entry).
func Max(a, b uint64) uint64 {
	return Select(GEMask(a, b), a, b)
}

// Min returns the per-lane minimum. Values must be < 2^15.
func Min(a, b uint64) uint64 {
	return Select(GEMask(a, b), b, a)
}

// SubSat returns per-lane max(0, a-b) (saturating-at-zero subtraction).
// Values must be < 2^15.
func SubSat(a, b uint64) uint64 {
	return SubMod(a, b) & GEMask(a, b)
}

// AddBiasClamp0 computes per-lane max(0, a + e) where eBiased is
// Splat/Pack of (e + bias) and biasW is Splat(bias). The caller must
// guarantee a + e + bias < 2^15 per lane.
func AddBiasClamp0(a, eBiased, biasW uint64) uint64 {
	return SubSat(AddMod(a, eBiased), biasW)
}

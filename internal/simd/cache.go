package simd

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"fvp"
)

// specKey returns the content address of a run: a hash of the normalized
// spec, so two requests that describe the same simulation — including
// ones that spell defaults differently — collapse to one cache entry.
// The key doubles as the ResultStore/BlobStore address, so cached results
// written by one process are found by the next when the store is durable.
// SpecKey is the exported form for layers above the service: the
// cluster router consistent-hashes it to pick a run's owner node, so
// ownership, dedup, and caching all shard on the same address.
func SpecKey(s fvp.RunSpec) string { return specKey(s) }

// specKey hashes the normalized fields joined by '|', integers in
// decimal and the CI target as %g prints it. Durable stores and the ring
// hold keys of this exact form, so it must not change by a byte
// (cache_test.go keeps the fmt.Sprintf formula it was first written as).
func specKey(s fvp.RunSpec) string {
	n := s.Normalized()
	var buf [192]byte
	b := append(buf[:0], n.Workload...)
	b = append(append(b, '|'), n.Machine...)
	b = append(append(b, '|'), n.Predictor...)
	b = strconv.AppendUint(append(b, '|'), n.WarmupInsts, 10)
	b = strconv.AppendUint(append(b, '|'), n.MeasureInsts, 10)
	b = append(append(b, '|'), n.WarmupMode...)
	b = strconv.AppendInt(append(b, '|'), int64(n.Regions), 10)
	b = strconv.AppendInt(append(b, '|'), int64(n.SampleUnits), 10)
	b = strconv.AppendUint(append(b, '|'), n.SampleUnitInsts, 10)
	b = strconv.AppendUint(append(b, '|'), n.SampleWarmupInsts, 10)
	b = strconv.AppendFloat(append(b, '|'), n.SampleTargetCI, 'g', -1, 64)
	b = strconv.AppendInt(append(b, '|'), int64(n.SampleMaxUnits), 10)
	b = strconv.AppendUint(append(b, '|'), n.SampleSeed, 10)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

package types

import "math"

// Hasher is an incremental FNV-1a hash over Value payloads. It replaces the
// throwaway string keys (Value.Key concatenations) the join, semi-join, index
// and IVM paths used to build per row: callers feed values in and take a
// uint64, allocating nothing. Hash equality is necessary but not sufficient —
// consumers must confirm candidate matches with KeyEqual (collision buckets).
//
// The hash is injective-intent-compatible with Value.Key(): two values
// receive the same hash stream exactly when their Key() strings are equal
// (kinds are tagged, -0.0 folds into +0.0 in vectors, NULLs share one tag).
type Hasher uint64

const (
	fnvOffset64 Hasher = 14695981039346656037
	fnvPrime64  Hasher = 1099511628211
)

// NewHasher returns a hasher at the FNV-1a offset basis.
func NewHasher() Hasher { return fnvOffset64 }

// Fold folds one byte into the hash. (Named to avoid the io.ByteWriter
// signature convention; hashing cannot fail, so no error return.)
func (h *Hasher) Fold(b byte) {
	*h = (*h ^ Hasher(b)) * fnvPrime64
}

// WriteUint64 folds eight bytes (little-endian) into the hash.
func (h *Hasher) WriteUint64(x uint64) {
	v := *h
	for i := 0; i < 8; i++ {
		v = (v ^ Hasher(byte(x))) * fnvPrime64
		x >>= 8
	}
	*h = v
}

// WriteString folds a length-prefixed string into the hash. The prefix keeps
// composite keys unambiguous ("ab"+"c" vs "a"+"bc").
func (h *Hasher) WriteString(s string) {
	h.WriteUint64(uint64(len(s)))
	v := *h
	for i := 0; i < len(s); i++ {
		v = (v ^ Hasher(s[i])) * fnvPrime64
	}
	*h = v
}

// WriteValue folds one value into the hash, tagged by kind so INT 1 and
// STRING "1" hash differently (mirroring Value.Key).
func (h *Hasher) WriteValue(v Value) {
	h.Fold(byte(v.kind))
	switch v.kind {
	case KindNull:
		// Tag byte alone: all NULLs share one hash, as Key() shares "∅".
	case KindInt:
		h.WriteUint64(uint64(v.i))
	case KindString:
		h.WriteString(v.s)
	case KindVector:
		h.WriteUint64(uint64(len(v.vec)))
		for _, f := range v.vec {
			if f == 0 {
				f = 0 // fold -0.0 per element, matching Key and KeyEqual
			}
			h.WriteUint64(math.Float64bits(f))
		}
	}
}

// Sum64 returns the current hash.
func (h Hasher) Sum64() uint64 { return uint64(h) }

// HashValue hashes a single value.
func HashValue(v Value) uint64 {
	h := NewHasher()
	h.WriteValue(v)
	return h.Sum64()
}

// KeyEqual reports whether two values are equal under hash-key semantics:
// exactly when their Key() strings coincide. Unlike Equal, NULL matches NULL
// (one group, as SQL GROUP BY and the old string keys treat it) and kinds
// never cross (INT 1 ≠ STRING "1"). This is the verification step
// behind every Hasher-keyed bucket.
func KeyEqual(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindNull:
		return true
	case KindInt:
		return a.i == b.i
	case KindString:
		return a.s == b.s
	case KindVector:
		if len(a.vec) != len(b.vec) {
			return false
		}
		for i := range a.vec {
			af, bf := a.vec[i], b.vec[i]
			if af == 0 {
				af = 0
			}
			if bf == 0 {
				bf = 0
			}
			if math.Float64bits(af) != math.Float64bits(bf) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

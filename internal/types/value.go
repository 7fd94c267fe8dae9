// Package types defines the value model shared by every layer of enrichdb.
//
// Values follow the extended relational model of the paper: a relation mixes
// fixed attributes (ordinary SQL values) with derived attributes whose value
// may be NULL until an enrichment function has produced it. A Value is a small
// tagged union so tuples can be stored and compared without boxing every cell
// in an interface.
package types

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The value kinds: a value is NULL, INT, STRING or VECTOR. Derived
// attributes are INT class labels, fixed attributes INT or STRING, and
// KindVector holds the feature vectors enrichment functions read (e.g. tweet
// embeddings, image features). Truth is not a value: predicates answer
// expr.TV. Numbers 2 and 4 are reserved (they were FLOAT and BOOL), so
// snapshots and wire frames keep their kind bytes and refuse those two.
const (
	KindNull   Kind = 0
	KindInt    Kind = 1
	KindString Kind = 3
	KindVector Kind = 5
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindString:
		return "TEXT"
	case KindVector:
		return "VECTOR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// CheckKind refuses a kind byte that is not a value kind: the reserved 2
// and 4 by the names FLOAT and BOOL, any other by number. The snapshot
// loader, the wire decoder and the catalog call it on the kinds they read.
func CheckKind(k Kind) error {
	switch k {
	case KindNull, KindInt, KindString, KindVector:
		return nil
	case 2:
		return errors.New("FLOAT is not supported; a value is NULL, INT, STRING or VECTOR")
	case 4:
		return errors.New("BOOL is not supported; a value is NULL, INT, STRING or VECTOR")
	}
	return fmt.Errorf("unknown value kind %d", uint8(k))
}

// Value is a tagged union over the kinds above. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	s    string
	vec  []float64
}

// Null is the NULL value (also the zero Value).
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewVector returns a feature-vector value. The slice is not copied; callers
// that mutate the input after construction must copy it themselves.
func NewVector(v []float64) Value { return Value{kind: KindVector, vec: v} }

// Kind reports the dynamic kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics if the value is not an INT;
// use Kind first when the kind is not statically known.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: Int() on %s value", v.kind))
	}
	return v.i
}

// Str returns the string payload. It panics for non-string values.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s value", v.kind))
	}
	return v.s
}

// Vector returns the feature-vector payload. It panics for non-vector values.
func (v Value) Vector() []float64 {
	if v.kind != KindVector {
		panic(fmt.Sprintf("types: Vector() on %s value", v.kind))
	}
	return v.vec
}

// Compare orders two values. It returns a negative, zero or positive integer
// following the usual contract, and false when the values are incomparable
// (either side NULL, incompatible kinds, or vectors). NULL comparisons being
// "unknown" rather than an ordering mirrors SQL three-valued logic.
func (v Value) Compare(o Value) (int, bool) {
	if v.kind == KindNull || o.kind == KindNull {
		return 0, false
	}
	if v.kind == KindInt && o.kind == KindInt {
		switch {
		case v.i < o.i:
			return -1, true
		case v.i > o.i:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.kind == KindString && o.kind == KindString {
		return strings.Compare(v.s, o.s), true
	}
	return 0, false
}

// Equal reports whether two values are equal and comparable. NULL never
// equals anything, including NULL (SQL semantics); use IsNull for NULL tests.
func (v Value) Equal(o Value) bool {
	if v.kind == KindVector && o.kind == KindVector {
		if len(v.vec) != len(o.vec) {
			return false
		}
		for i := range v.vec {
			if v.vec[i] != o.vec[i] {
				return false
			}
		}
		return true
	}
	c, ok := v.Compare(o)
	return ok && c == 0
}

// Key returns a string usable as a hash-join or group-by key. It is
// injective per kind and differentiates kinds, so INT 1 and STRING "1" get
// distinct keys. NULL values share the single key "∅" (group-by treats NULLs
// as one group, as SQL does).
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "∅"
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 10)
	case KindString:
		return "s" + v.s
	case KindVector:
		var sb strings.Builder
		sb.WriteByte('v')
		for _, f := range v.vec {
			// Normalize -0 per element so [-0.0] and [0.0] share one
			// group-by/join key.
			if f == 0 {
				f = 0
			}
			sb.WriteString(strconv.FormatUint(math.Float64bits(f), 16))
			sb.WriteByte(',')
		}
		return sb.String()
	default:
		return "?"
	}
}

// String renders the value for display and plan dumps.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		// Escape embedded quotes SQL-style so the rendering re-parses (the
		// lexer reads '' inside a literal as one quote).
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindVector:
		parts := make([]string, 0, len(v.vec))
		for _, f := range v.vec {
			parts = append(parts, strconv.FormatFloat(f, 'g', 4, 64))
		}
		return "[" + strings.Join(parts, ",") + "]"
	default:
		return "?"
	}
}

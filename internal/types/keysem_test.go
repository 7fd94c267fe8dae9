package types

import (
	"math"
	"math/rand"
	"testing"
)

// genValue draws a value of a random kind, biased toward payloads that stress
// key semantics: vectors of ±0.0 and NaNs with distinct payloads, empty
// strings/vectors and near-duplicate integers.
func genValue(r *rand.Rand) Value {
	floats := []float64{
		0.0, math.Copysign(0, -1), 1.5, -1.5,
		math.NaN(), math.Float64frombits(0x7ff8000000000001), // distinct NaN payload
		math.Inf(1), math.Inf(-1), 42,
	}
	switch r.Intn(4) {
	case 0:
		return Null
	case 1:
		return NewInt(int64(r.Intn(5) - 2))
	case 2:
		ss := []string{"", "a", "ab", "∅", "i1"}
		return NewString(ss[r.Intn(len(ss))])
	default:
		n := r.Intn(4)
		vec := make([]float64, n)
		for i := range vec {
			vec[i] = floats[r.Intn(len(floats))]
		}
		return NewVector(vec)
	}
}

// TestKeySemanticsCrossCheck asserts the three key mechanisms agree:
// KeyEqual(a,b) ⇔ Key(a)==Key(b), and either implies HashValue(a)==HashValue(b).
// Exercises every kind including NaN payloads and ±0.0 in vectors.
func TestKeySemanticsCrossCheck(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for i := 0; i < 20000; i++ {
		a, b := genValue(r), genValue(r)
		ke := KeyEqual(a, b)
		ks := a.Key() == b.Key()
		if ke != ks {
			t.Fatalf("KeyEqual=%v but Key match=%v for %s vs %s (keys %q vs %q)",
				ke, ks, a, b, a.Key(), b.Key())
		}
		if ke && HashValue(a) != HashValue(b) {
			t.Fatalf("KeyEqual but hashes differ for %s vs %s", a, b)
		}
		// Reflexivity: every value must agree with itself under all three.
		if !KeyEqual(a, a) || a.Key() != a.Key() || HashValue(a) != HashValue(a) {
			t.Fatalf("key semantics not reflexive for %s", a)
		}
	}
}

// TestVectorNegativeZeroKeys pins the -0.0 normalization bugfix: [-0.0] and
// [0.0] must group as one key under Key, KeyEqual and HashValue.
func TestVectorNegativeZeroKeys(t *testing.T) {
	neg := NewVector([]float64{math.Copysign(0, -1)})
	pos := NewVector([]float64{0.0})
	if !KeyEqual(neg, pos) {
		t.Fatalf("KeyEqual([-0.0], [0.0]) = false, want true")
	}
	if neg.Key() != pos.Key() {
		t.Fatalf("Key mismatch: %q vs %q", neg.Key(), pos.Key())
	}
	if HashValue(neg) != HashValue(pos) {
		t.Fatalf("HashValue mismatch for [-0.0] vs [0.0]")
	}
	// Mixed positions too, and NaN payloads must still key by exact bits.
	neg2 := NewVector([]float64{1, math.Copysign(0, -1), 2})
	pos2 := NewVector([]float64{1, 0, 2})
	if !KeyEqual(neg2, pos2) || neg2.Key() != pos2.Key() || HashValue(neg2) != HashValue(pos2) {
		t.Fatalf("[1,-0.0,2] and [1,0.0,2] must share a key")
	}
	nan1 := NewVector([]float64{math.NaN()})
	nan2 := NewVector([]float64{math.Float64frombits(0x7ff8000000000001)})
	if KeyEqual(nan1, nan2) != (nan1.Key() == nan2.Key()) {
		t.Fatalf("NaN payload vectors: KeyEqual and Key disagree")
	}
}

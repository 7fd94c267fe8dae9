package types

import (
	"math"
	"math/rand"
	"testing"
)

// randValue draws a value from a small universe so collisions in the
// *semantic* sense (equal values) occur often.
func randValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return Null
	case 1:
		return NewInt(int64(r.Intn(5)))
	case 2:
		return NewString([]string{"", "a", "ab", "b"}[r.Intn(4)])
	default:
		return NewVector([]float64{[]float64{0, math.Copysign(0, -1), 1.5}[r.Intn(3)], float64(r.Intn(2))})
	}
}

// TestKeyEqualMatchesKeyString checks the contract the hashed paths rely on:
// KeyEqual(a, b) ⇔ a.Key() == b.Key(), and KeyEqual ⇒ equal hashes.
func TestKeyEqualMatchesKeyString(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a, b := randValue(r), randValue(r)
		keyEq := a.Key() == b.Key()
		if got := KeyEqual(a, b); got != keyEq {
			t.Fatalf("KeyEqual(%v, %v) = %v, Key strings equal = %v", a, b, got, keyEq)
		}
		if keyEq && HashValue(a) != HashValue(b) {
			t.Fatalf("equal keys %v, %v hash differently", a, b)
		}
	}
}

// TestHasherKindTags checks cross-kind values that render alike still hash
// (and compare) distinctly.
func TestHasherKindTags(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(1), NewString("1")},
		{NewInt(1), NewVector([]float64{1})},
		{NewString("1"), NewVector([]float64{1})},
	}
	for _, p := range pairs {
		if KeyEqual(p[0], p[1]) {
			t.Errorf("KeyEqual(%v, %v) crossed kinds", p[0], p[1])
		}
		if HashValue(p[0]) == HashValue(p[1]) {
			t.Errorf("HashValue(%v) == HashValue(%v): kinds not tagged", p[0], p[1])
		}
	}
}

// TestHasherNegativeZero: vectors holding -0.0 and +0.0 must share hash and
// key, as they compare equal element by element.
func TestHasherNegativeZero(t *testing.T) {
	pz, nz := NewVector([]float64{0}), NewVector([]float64{math.Copysign(0, -1)})
	if !KeyEqual(pz, nz) {
		t.Fatal("KeyEqual([+0.0], [-0.0]) = false")
	}
	if HashValue(pz) != HashValue(nz) {
		t.Fatal("[+0.0] and [-0.0] hash differently")
	}
}

// TestHasherComposite checks composite keys stay unambiguous across value
// boundaries ("ab","c" vs "a","bc").
func TestHasherComposite(t *testing.T) {
	h1 := NewHasher()
	h1.WriteValue(NewString("ab"))
	h1.WriteValue(NewString("c"))
	h2 := NewHasher()
	h2.WriteValue(NewString("a"))
	h2.WriteValue(NewString("bc"))
	if h1.Sum64() == h2.Sum64() {
		t.Fatal("composite string keys collide across boundaries")
	}
}

// TestHasherNullTag: NULLs share one hash key regardless of origin.
func TestHasherNullTag(t *testing.T) {
	if !KeyEqual(Null, Value{}) || HashValue(Null) != HashValue(Value{}) {
		t.Fatal("NULL values must share one hash key")
	}
}

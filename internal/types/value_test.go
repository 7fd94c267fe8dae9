package types

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNullSemantics(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null must report IsNull")
	}
	var zero Value
	if !zero.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if _, ok := Null.Compare(NewInt(1)); ok {
		t.Error("NULL must be incomparable to 1")
	}
	if _, ok := NewInt(1).Compare(Null); ok {
		t.Error("1 must be incomparable to NULL")
	}
	if Null.Equal(Null) {
		t.Error("NULL = NULL must be false (SQL semantics)")
	}
}

func TestCompareInts(t *testing.T) {
	cases := []struct {
		a, b int64
		want int
	}{{1, 2, -1}, {2, 1, 1}, {5, 5, 0}, {-3, 3, -1}}
	for _, c := range cases {
		got, ok := NewInt(c.a).Compare(NewInt(c.b))
		if !ok || got != c.want {
			t.Errorf("Compare(%d,%d) = %d,%v want %d,true", c.a, c.b, got, ok, c.want)
		}
	}
}

// TestCompareMixedNumeric: an INT compares only with an INT, exactly at any
// magnitude; against a STRING or a VECTOR it is incomparable.
func TestCompareMixedNumeric(t *testing.T) {
	got, ok := NewInt(1 << 62).Compare(NewInt(1<<62 + 1))
	if !ok || got != -1 {
		t.Errorf("large int compare = %d,%v want -1,true", got, ok)
	}
	for _, o := range []Value{NewString("1"), NewVector([]float64{1})} {
		if _, ok := NewInt(1).Compare(o); ok {
			t.Errorf("INT 1 and %s must be incomparable", o)
		}
	}
}

func TestCompareStrings(t *testing.T) {
	got, ok := NewString("apple").Compare(NewString("banana"))
	if !ok || got >= 0 {
		t.Errorf("apple vs banana = %d,%v", got, ok)
	}
	if _, ok := NewString("1").Compare(NewInt(1)); ok {
		t.Error("string and int must be incomparable")
	}
}

func TestKeyDistinguishesKinds(t *testing.T) {
	if NewInt(1).Key() == NewString("1").Key() {
		t.Error("INT 1 and TEXT '1' must have distinct keys")
	}
	if NewInt(1).Key() == NewVector([]float64{1}).Key() {
		t.Error("INT 1 and VECTOR [1] must have distinct keys")
	}
}

func TestVectorEqual(t *testing.T) {
	a := NewVector([]float64{1, 2, 3})
	b := NewVector([]float64{1, 2, 3})
	c := NewVector([]float64{1, 2})
	if !a.Equal(b) {
		t.Error("identical vectors must be Equal")
	}
	if a.Equal(c) {
		t.Error("different-length vectors must not be Equal")
	}
	if a.Key() != b.Key() {
		t.Error("equal vectors must share a key")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic on wrong kind", name)
			}
		}()
		fn()
	}
	mustPanic("Int", func() { NewString("x").Int() })
	mustPanic("Str", func() { NewInt(1).Str() })
	mustPanic("Vector", func() { NewInt(1).Vector() })
}

// Property: Compare is antisymmetric and Key agrees with equality for ints.
func TestCompareKeyConsistencyQuick(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		ab, ok1 := va.Compare(vb)
		ba, ok2 := vb.Compare(va)
		if !ok1 || !ok2 || ab != -ba {
			return false
		}
		return (ab == 0) == (va.Key() == vb.Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(42), "42"},
		{NewString("hi"), "'hi'"},
		{NewString("it's"), "'it''s'"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q want %q", c.v.Kind(), got, c.want)
		}
	}
}

// TestValueSize: a value is a kind, an INT payload, a string header and a
// vector header, 56 bytes on a 64-bit target; every tuple cell and row value
// pays it.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 56 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 56", n)
	}
}

// TestCheckKind: the four value kinds pass; 2 and 4 are refused as FLOAT
// and BOOL, any other number as unknown.
func TestCheckKind(t *testing.T) {
	for _, k := range []Kind{KindNull, KindInt, KindString, KindVector} {
		if err := CheckKind(k); err != nil {
			t.Errorf("CheckKind(%s) = %v", k, err)
		}
	}
	for k, want := range map[Kind]string{2: "FLOAT is not supported", 4: "BOOL is not supported", 9: "unknown value kind 9"} {
		if err := CheckKind(k); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CheckKind(%d) = %v, want %q", k, err, want)
		}
	}
}

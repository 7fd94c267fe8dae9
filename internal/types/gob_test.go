package types

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

func TestValueGobRoundTrip(t *testing.T) {
	values := []Value{
		Null,
		NewInt(0), NewInt(-42), NewInt(1 << 60),
		NewString(""), NewString("héllo 'quoted'"),
		NewVector(nil), NewVector([]float64{1.5, -2.5, 0}),
	}
	for _, v := range values {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
			t.Fatalf("encode %s: %v", v, err)
		}
		var got Value
		if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
			t.Fatalf("decode %s: %v", v, err)
		}
		if got.Kind() != v.Kind() {
			t.Fatalf("%s: kind %v -> %v", v, v.Kind(), got.Kind())
		}
		if v.IsNull() {
			continue
		}
		if v.Kind() == KindVector {
			if !got.Equal(v) && len(v.Vector()) > 0 {
				t.Fatalf("vector round trip: %s -> %s", v, got)
			}
			continue
		}
		if !got.Equal(v) {
			t.Fatalf("round trip: %s -> %s", v, got)
		}
	}
}

func TestValueGobDecodeErrors(t *testing.T) {
	var v Value
	if err := v.GobDecode(nil); err == nil {
		t.Error("empty payload must fail")
	}
	if err := v.GobDecode([]byte{99}); err == nil {
		t.Error("unknown kind must fail")
	}
	if err := v.GobDecode([]byte{byte(KindVector), 1, 2, 3}); err == nil {
		t.Error("misaligned vector must fail")
	}
	if err := v.GobDecode([]byte{byte(KindInt)}); err == nil {
		t.Error("missing varint must fail")
	}
	// Kind bytes 2 and 4 (FLOAT and BOOL once) are refused by name,
	// whatever payload follows.
	for data, want := range map[string]string{"\x02\x00\x00\x00\x00\x00\x00\xf8\x3f": "FLOAT is not supported", "\x04\x02": "BOOL is not supported"} {
		if err := v.GobDecode([]byte(data)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("GobDecode(kind %d) = %v, want an error naming %q", data[0], err, want)
		}
	}
}

package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// GobEncode implements gob.GobEncoder so Values survive snapshot
// serialization despite their unexported fields. The format is one kind
// byte followed by a kind-specific payload.
func (v Value) GobEncode() ([]byte, error) {
	buf := []byte{byte(v.kind)}
	switch v.kind {
	case KindNull:
	case KindInt:
		buf = binary.AppendVarint(buf, v.i)
	case KindString:
		buf = append(buf, v.s...)
	case KindVector:
		for _, f := range v.vec {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
		}
	default:
		return nil, fmt.Errorf("types: cannot encode kind %d", v.kind)
	}
	return buf, nil
}

// GobDecode implements gob.GobDecoder.
func (v *Value) GobDecode(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("types: empty value encoding")
	}
	kind := Kind(data[0])
	payload := data[1:]
	switch kind {
	case KindNull:
		*v = Null
	case KindInt:
		i, n := binary.Varint(payload)
		if n <= 0 {
			return fmt.Errorf("types: bad integer encoding")
		}
		*v = Value{kind: KindInt, i: i}
	case KindString:
		*v = Value{kind: KindString, s: string(payload)}
	case KindVector:
		if len(payload)%8 != 0 {
			return fmt.Errorf("types: bad vector encoding")
		}
		vec := make([]float64, len(payload)/8)
		for i := range vec {
			vec[i] = math.Float64frombits(binary.BigEndian.Uint64(payload[i*8:]))
		}
		*v = Value{kind: KindVector, vec: vec}
	default:
		return fmt.Errorf("types: cannot decode value: %w", CheckKind(kind))
	}
	return nil
}

package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"enrichdb/internal/types"
)

// hasNaN reports whether a frame carries any NaN float payload (Quality,
// vector elements) — the one case where DeepEqual disagrees with byte-level
// identity.
func hasNaN(fr Frame) bool {
	switch f := fr.(type) {
	case *Epoch:
		return math.IsNaN(f.Quality)
	case *ResultBatch:
		for ci := range f.Cols {
			for _, v := range f.Cols[ci].Vals {
				if v.Kind() == types.KindVector {
					for _, e := range v.Vector() {
						if math.IsNaN(e) {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// FuzzFrame feeds arbitrary bytes through the frame decoder and enforces
// the codec's two safety contracts:
//
//  1. the decoder is total — it never panics, whatever the input (the fuzz
//     engine catches panics), and
//  2. decode∘encode is the identity on decoded frames — any frame the
//     decoder accepts re-encodes to an image that decodes to an equal frame
//     (round-trip stability; byte images may differ only when the input
//     used non-minimal varints, which re-encoding canonicalizes).
//
// The seed corpus covers every frame type via sampleFrames and the
// reserved numbers of the removed types via removedFrames; go test -fuzz
// grows it under testdata/fuzz/FuzzFrame.
func FuzzFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		img, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	for _, rf := range removedFrames {
		f.Add(rawFrame(rf.typ, rf.payload))
	}
	// A few malformed seeds steer the engine toward the error paths.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add([]byte{0, 0, 0, 1, 200})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data), 0)
		if err != nil {
			return // malformed input must error, never panic
		}
		img, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame %s failed to re-encode: %v", fr.Type(), err)
		}
		fr2, err := ReadFrame(bytes.NewReader(img), 0)
		if err != nil {
			t.Fatalf("re-encoded %s failed to decode: %v", fr.Type(), err)
		}
		img2, err := AppendFrame(nil, fr2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, img2) {
			t.Fatalf("encoding is not canonical:\n first %x\nsecond %x", img, img2)
		}
		// Structural equality: NaN floats compare unequal to themselves under
		// DeepEqual even though the byte images above already proved the
		// frames identical, so NaN-bearing frames settle for byte equality.
		if !reflect.DeepEqual(fr, fr2) && !hasNaN(fr) {
			t.Fatalf("round trip diverged:\n first %#v\nsecond %#v", fr, fr2)
		}
	})
}

// Package wire defines enrichdb's client/server network protocol: a
// length-prefixed binary framing with a handshake (tenant auth token),
// query/prepare/execute/cancel control frames, columnar result batches
// reusing the expr.Batch layout (typed payloads + NULL bitmap), progressive
// epoch frames, and error frames.
//
// Framing: every frame is
//
//	[4-byte big-endian length][1-byte type][payload]
//
// where length counts the type byte plus the payload. The decoder is strict
// and total: it never panics on malformed, truncated or oversized input, it
// bounds every allocation by the bytes actually present, and unknown frame
// types are an error (the protocol version is negotiated in the handshake,
// so an unknown type is corruption, not a newer peer).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ProtoVersion is the protocol revision. A server refuses a Hello whose
// version it does not speak (CodeUnsupported), so a peer of another revision
// is turned away at the handshake, not cut off mid-stream at a frame type it
// does not know (see the reserved numbers in frames.go) or a batch column
// kind it does not read (types.CheckKind).
const ProtoVersion = 3

// MaxFrameLen is the default cap on one frame's encoded size (type byte +
// payload). Result batches are bounded by the batch lane count, so 4 MiB
// leaves generous headroom for wide string columns.
const MaxFrameLen = 4 << 20

// ErrFrameTooLarge is returned when a frame header announces a length above
// the decoder's cap — the connection is unrecoverable at that point, since
// the stream position is unknown.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrTruncated is returned when a payload ends before its declared content.
var ErrTruncated = errors.New("wire: truncated frame payload")

// buf is the payload decoder cursor: a window over one frame's payload.
// Every get* method fails with ErrTruncated instead of reading past the end,
// and slice-count reads are validated against the remaining byte budget
// before allocating.
type buf struct {
	b []byte
}

func (r *buf) remaining() int { return len(r.b) }

func (r *buf) u8() (byte, error) {
	if len(r.b) < 1 {
		return 0, ErrTruncated
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

func (r *buf) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *buf) varint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *buf) u32() (uint32, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("wire: %d overflows uint32", v)
	}
	return uint32(v), nil
}

func (r *buf) f64() (float64, error) {
	if len(r.b) < 8 {
		return 0, ErrTruncated
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v, nil
}

// count reads a uvarint element count and validates it against the bytes
// remaining, given a minimum encoded size per element. This is the
// allocation guard: a forged count can never make the decoder allocate more
// than the payload it arrived in justifies.
func (r *buf) count(minPerElem int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if minPerElem < 1 {
		minPerElem = 1
	}
	if v > uint64(r.remaining()/minPerElem) {
		return 0, fmt.Errorf("wire: count %d exceeds payload (%d bytes left): %w",
			v, r.remaining(), ErrTruncated)
	}
	return int(v), nil
}

func (r *buf) bytes() ([]byte, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if len(r.b) < n {
		return nil, ErrTruncated
	}
	v := make([]byte, n)
	copy(v, r.b)
	r.b = r.b[n:]
	return v, nil
}

func (r *buf) str() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	if len(r.b) < n {
		return "", ErrTruncated
	}
	v := string(r.b[:n])
	r.b = r.b[n:]
	return v, nil
}

func (r *buf) strs() ([]string, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// Append helpers (encoder side). Encoding appends onto a caller-provided
// slice so one scratch buffer serves a whole connection.

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBytes(b, v []byte) []byte {
	b = appendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func appendStr(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrs(b []byte, ss []string) []byte {
	b = appendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

// WriteFrame encodes f and writes it to w as one length-prefixed frame.
func WriteFrame(w io.Writer, f Frame) error {
	buf, err := AppendFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// AppendFrame appends f's full wire image (length prefix, type byte,
// payload) to dst and returns the extended slice. Callers reuse dst across
// frames to amortize allocation.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length patched below
	dst = append(dst, byte(f.Type()))
	dst = f.appendPayload(dst)
	n := len(dst) - start - 4
	if n > MaxFrameLen {
		return nil, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// ReadFrame reads one frame from r, enforcing maxLen (0 means MaxFrameLen).
// It returns io.EOF only on a clean boundary (no bytes read);  a frame cut
// off mid-stream surfaces io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, maxLen int) (Frame, error) {
	if maxLen <= 0 {
		maxLen = MaxFrameLen
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 {
		return nil, fmt.Errorf("wire: zero-length frame")
	}
	if int64(n) > int64(maxLen) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxLen)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return DecodeFrame(Type(body[0]), body[1:])
}

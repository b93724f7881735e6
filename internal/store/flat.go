package store

// Flat section payloads — the mmap-friendly encoding of every snapshot
// section — are sequences of 8-byte little-endian machine words plus
// length-prefixed byte runs padded back to 8-byte alignment. The
// SlabWriter/SlabReader pair below is the shared codec substrate: every
// scalar occupies exactly 8 bytes, so any slab (a bit-vector word array, a
// float array) that follows starts 8-byte aligned in the file, and a
// reader over a memory mapping can view it in place instead of decoding
// it. SlabReader is a sticky-error parser: any out-of-bounds or malformed
// read poisons the reader with an error wrapping ErrCorrupt and every
// subsequent read returns zero values, so decoders validate once at the
// end and can never panic on a truncated or bit-flipped payload.

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// SlabWriter builds a flat little-endian section payload. Every method
// keeps the buffer 8-byte aligned.
type SlabWriter struct {
	buf []byte
}

// NewSlabWriter returns a writer with capacity preallocated.
func NewSlabWriter(capacity int) *SlabWriter {
	return &SlabWriter{buf: make([]byte, 0, capacity)}
}

// U64 appends one 64-bit word.
func (w *SlabWriter) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends one signed 64-bit word.
func (w *SlabWriter) I64(v int64) { w.U64(uint64(v)) }

// F64 appends one IEEE-754 double (bit pattern preserved, NaN included).
func (w *SlabWriter) F64(v float64) { w.U64(math.Float64bits(v)) }

// String appends a length-prefixed string, zero-padded to 8 bytes.
func (w *SlabWriter) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
	w.pad()
}

// Bytes appends a length-prefixed byte run, zero-padded to 8 bytes.
func (w *SlabWriter) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
	w.pad()
}

// Raw appends b with no length prefix; len(b) must be a multiple of 8
// (bit-vector word slabs are). The caller records the length elsewhere.
func (w *SlabWriter) Raw(b []byte) {
	if len(b)%8 != 0 {
		panic(fmt.Sprintf("store: SlabWriter.Raw of %d bytes breaks alignment", len(b)))
	}
	w.buf = append(w.buf, b...)
}

// AppendFunc lets an encoder append directly onto the writer's buffer
// (e.g. bitvec.AppendWords) with no intermediate copy. fn must append a
// multiple of 8 bytes.
func (w *SlabWriter) AppendFunc(fn func(dst []byte) []byte) {
	n := len(w.buf)
	w.buf = fn(w.buf)
	if grew := len(w.buf) - n; grew < 0 || grew%8 != 0 {
		panic(fmt.Sprintf("store: SlabWriter.AppendFunc grew %d bytes, breaking alignment", grew))
	}
}

func (w *SlabWriter) pad() {
	for len(w.buf)%8 != 0 {
		w.buf = append(w.buf, 0)
	}
}

// Len returns the bytes written so far.
func (w *SlabWriter) Len() int { return len(w.buf) }

// Finish returns the completed payload.
func (w *SlabWriter) Finish() []byte { return w.buf }

// SlabReader parses a flat section payload, typically a view into a
// memory-mapped container. It never copies: String and Bytes return views
// aliasing the input buffer, valid exactly as long as the buffer is.
type SlabReader struct {
	data []byte
	off  int
	err  error
}

// NewSlabReader returns a reader over data.
func NewSlabReader(data []byte) *SlabReader { return &SlabReader{data: data} }

// fail poisons the reader; the first failure wins.
func (r *SlabReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("store: flat payload at offset %d: %s: %w", r.off, fmt.Sprintf(format, args...), ErrCorrupt)
	}
}

// Err returns the first decode failure, wrapping ErrCorrupt, or nil.
func (r *SlabReader) Err() error { return r.err }

// Remaining returns the unread byte count.
func (r *SlabReader) Remaining() int { return len(r.data) - r.off }

// U64 reads one 64-bit word.
func (r *SlabReader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail("truncated word")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// I64 reads one signed 64-bit word.
func (r *SlabReader) I64() int64 { return int64(r.U64()) }

// F64 reads one IEEE-754 double.
func (r *SlabReader) F64() float64 { return math.Float64frombits(r.U64()) }

// Int reads a word that must fit a non-negative int.
func (r *SlabReader) Int() int {
	v := r.U64()
	if v > math.MaxInt {
		r.fail("value %d overflows int", v)
		return 0
	}
	return int(v)
}

// Count reads an element count whose elements occupy at least minBytes
// each, bounding it by the bytes actually remaining — so a corrupt count
// can never drive an absurd preallocation.
func (r *SlabReader) Count(minBytes int) int {
	v := r.U64()
	if max := uint64(r.Remaining() / minBytes); v > max {
		r.fail("count %d exceeds the %d elements the payload could hold", v, max)
		return 0
	}
	return int(v)
}

// Raw reads n bytes with no length prefix, returning a view into the
// underlying buffer.
func (r *SlabReader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.fail("truncated slab (want %d bytes, have %d)", n, r.Remaining())
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Bytes reads a length-prefixed byte run written by SlabWriter.Bytes,
// returning a view into the underlying buffer.
func (r *SlabReader) Bytes() []byte {
	n := r.Count(1)
	b := r.Raw(n)
	r.skipPad(n)
	return b
}

// String reads a length-prefixed string written by SlabWriter.String. The
// returned string aliases the underlying buffer — zero-copy, immutable by
// Go's string contract, and valid as long as the buffer is mapped.
func (r *SlabReader) String() string {
	b := r.Bytes()
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

func (r *SlabReader) skipPad(n int) {
	if pad := (8 - n%8) % 8; pad > 0 {
		r.Raw(pad)
	}
}

// Done reports the first decode failure, or an ErrCorrupt when unread
// bytes remain: a payload that parses but is longer than its content does
// not describe the section that was written.
func (r *SlabReader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("store: flat payload has %d trailing bytes: %w", r.Remaining(), ErrCorrupt)
	}
	return nil
}

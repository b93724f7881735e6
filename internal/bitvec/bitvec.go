// Package bitvec implements fixed-length bit vectors.
//
// The Data Polygamy framework represents the feature set of a scalar
// function — the set of spatio-temporal points classified as positive or
// negative features — as a bit vector over the vertices of the domain
// graph (Appendix C of the paper). Relationship evaluation then reduces to
// bitwise intersections and popcounts, which is both compact and fast.
package bitvec

import (
	"encoding/binary"
	"fmt"
	"iter"
	"math/bits"
	"strings"
	"unsafe"
)

const wordBits = 64

// Vector is a fixed-length sequence of bits. The zero value is an empty
// vector of length 0; construct sized vectors with New.
type Vector struct {
	words []uint64
	n     int
	// ro marks a zero-copy view (FromBytes) whose words alias caller-owned
	// storage — typically a read-only mmap region. Mutating methods panic
	// on such a vector instead of faulting on the mapping.
	ro bool
}

// New returns a vector of n bits, all zero.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Resize makes v an all-zero vector of n bits in place, reusing its storage
// when that is large enough: a buffer refilled for inputs of varying size.
func (v *Vector) Resize(n int) {
	if n < 0 {
		panic("bitvec: negative length")
	}
	v.checkWritable()
	if nw := NumWords(n); cap(v.words) < nw {
		v.words = make([]uint64, nw)
	} else {
		v.words = v.words[:nw]
		clear(v.words)
	}
	v.n = n
}

// Words returns the vector's storage: bit i is bit i%64 of word i/64, and
// bits at and past Len are zero. The slice aliases v; callers only read it.
func (v *Vector) Words() []uint64 { return v.words }

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.checkWritable()
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.checkWritable()
	v.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

func (v *Vector) checkWritable() {
	if v.ro {
		panic("bitvec: write to a read-only view (FromBytes)")
	}
}

// Count returns the number of set bits (population count).
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Or returns a new vector that is the bitwise OR of v and o.
func (v *Vector) Or(o *Vector) *Vector {
	v.checkLen(o)
	out := New(v.n)
	for i, w := range v.words {
		out.words[i] = w | o.words[i]
	}
	return out
}

// OrWith sets v to v OR o in place. Both vectors must have the same length.
func (v *Vector) OrWith(o *Vector) {
	v.checkLen(o)
	v.checkWritable()
	for i, w := range o.words {
		v.words[i] |= w
	}
}

// AndCount returns the popcount of v AND o without allocating the result
// vector. This is the hot path of relationship evaluation: |Σ1 ∩ Σ2|.
func (v *Vector) AndCount(o *Vector) int {
	v.checkLen(o)
	c := 0
	for i, w := range v.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// Occupied returns v's word-occupancy bitmap: a vector of NumWords(v.Len())
// bits whose bit i is set when word i of v is non-zero. SharedWords walks
// two such bitmaps. A bitmap may also mark a zero word, which only costs
// the walk a visit; one that misses a non-zero word hides its bits.
func (v *Vector) Occupied() *Vector {
	out := New(len(v.words))
	for i, w := range v.words {
		if w != 0 {
			out.words[i/wordBits] |= 1 << uint(i%wordBits)
		}
	}
	return out
}

// SharedWords yields, in ascending order, the index of every word both
// occupancy bitmaps mark (see Occupied): the only words in which the two
// vectors they cover can share a bit. Relationship evaluation and the
// query planner's union tests walk these instead of every word, so their
// cost follows the features, not the length of the domain. Walking it
// panics if the bitmaps' lengths differ.
func SharedWords(oa, ob *Vector) iter.Seq[int] {
	return func(yield func(int) bool) {
		oa.checkLen(ob)
		for j, w := range oa.words {
			for w &= ob.words[j]; w != 0; w &= w - 1 {
				if !yield(j*wordBits + bits.TrailingZeros64(w)) {
					return
				}
			}
		}
	}
}

func (v *Vector) checkLen(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	out := New(v.n)
	copy(out.words, v.words)
	return out
}

// Equal reports whether v and o have the same length and identical bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Ones returns the indices of all set bits in ascending order.
func (v *Vector) Ones() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Any reports whether at least one bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Grow returns a writable copy of v extended to n bits (n >= v.Len()); the
// appended bits are zero. It works on read-only views too — the words are
// copied out of the mapped region — which is how zero-copy snapshot vectors
// are tile-extended when a warm-opened corpus is appended to: existing bit
// positions are preserved exactly, so step→bit mapping survives the append.
func (v *Vector) Grow(n int) *Vector {
	if n < v.n {
		panic(fmt.Sprintf("bitvec: Grow to %d bits would shrink %d", n, v.n))
	}
	out := New(n)
	copy(out.words, v.words)
	return out
}

// lowMask returns a word with the k lowest bits set (k in [0, 64]).
func lowMask(k int) uint64 {
	if k >= wordBits {
		return ^uint64(0)
	}
	return uint64(1)<<uint(k) - 1
}

// rangeBits reads k (<= 64) bits starting at bit offset off, returned in
// the low bits of the result. Bits past v.Len() read as zero.
func (v *Vector) rangeBits(off, k int) uint64 {
	w, b := off/wordBits, off%wordBits
	var x uint64
	if w < len(v.words) {
		x = v.words[w] >> uint(b)
		if b+k > wordBits && w+1 < len(v.words) {
			x |= v.words[w+1] << uint(wordBits-b)
		}
	}
	return x & lowMask(k)
}

// CopyRange copies n bits from src starting at srcOff into v starting at
// dstOff. Ranges must lie within the respective vectors; v must be
// writable. Offsets need not be word-aligned — this is the bit blit that
// stitches per-tile feature vectors into a full-domain vector at offset
// tileStartStep*nRegions, and compacts supporting-tile windows for the
// windowed Monte Carlo test.
func (v *Vector) CopyRange(src *Vector, srcOff, dstOff, n int) {
	v.checkWritable()
	if n < 0 || srcOff < 0 || dstOff < 0 || srcOff+n > src.n || dstOff+n > v.n {
		panic(fmt.Sprintf("bitvec: CopyRange src[%d:%d) of %d into dst[%d:%d) of %d",
			srcOff, srcOff+n, src.n, dstOff, dstOff+n, v.n))
	}
	for n > 0 {
		dw, db := dstOff/wordBits, dstOff%wordBits
		take := wordBits - db
		if take > n {
			take = n
		}
		bits := src.rangeBits(srcOff, take)
		mask := lowMask(take) << uint(db)
		v.words[dw] = v.words[dw]&^mask | bits<<uint(db)
		srcOff += take
		dstOff += take
		n -= take
	}
}

// AnyRange reports whether any bit in [from, to) is set.
func (v *Vector) AnyRange(from, to int) bool {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("bitvec: AnyRange [%d,%d) out of range [0,%d)", from, to, v.n))
	}
	for from < to {
		w, b := from/wordBits, from%wordBits
		take := wordBits - b
		if take > to-from {
			take = to - from
		}
		if v.words[w]&(lowMask(take)<<uint(b)) != 0 {
			return true
		}
		from += take
	}
	return false
}

// MaskRange returns a writable copy of v with only the bits in [from, to)
// kept (everything outside the range cleared). Windowed queries mask
// feature sets to the clause's time window with it.
func (v *Vector) MaskRange(from, to int) *Vector {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("bitvec: MaskRange [%d,%d) out of range [0,%d)", from, to, v.n))
	}
	out := New(v.n)
	if from == to {
		return out
	}
	loW, hiW := from/wordBits, (to-1)/wordBits
	copy(out.words[loW:hiW+1], v.words[loW:hiW+1])
	out.words[loW] &^= lowMask(from % wordBits)
	if tail := to % wordBits; tail != 0 {
		out.words[hiW] &= lowMask(tail)
	}
	return out
}

// Reset clears all bits in place.
func (v *Vector) Reset() {
	v.checkWritable()
	for i := range v.words {
		v.words[i] = 0
	}
}

// String renders the vector as a compact summary, e.g. "bitvec(12/64)".
func (v *Vector) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bitvec(%d/%d)", v.Count(), v.n)
	return sb.String()
}

// NumWords returns the number of 64-bit storage words backing n bits.
func NumWords(n int) int { return (n + wordBits - 1) / wordBits }

// WordBytes returns the byte length of the vector's word storage.
func (v *Vector) WordBytes() int { return 8 * len(v.words) }

// AppendWords appends the vector's words to dst in little-endian order —
// the flat snapshot encoding FromBytes maps back without a copy. No
// length header is written; the caller records v.Len() alongside the slab.
func (v *Vector) AppendWords(dst []byte) []byte {
	for _, w := range v.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// hostLittleEndian reports whether uint64 words in memory use the same
// byte order as the flat snapshot encoding (little-endian). On the rare
// big-endian host FromBytes falls back to copying.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// FromBytes builds a read-only n-bit vector over data, the little-endian
// word slab written by AppendWords. When data is 8-byte aligned on a
// little-endian host the returned vector aliases data directly — zero
// copy, so a memory-mapped snapshot section is queried in place and its
// pages are shared between processes; otherwise the words are copied.
//
// data must be exactly NumWords(n)*8 bytes and any bits beyond n in the
// last word must be zero (every Vector maintains that invariant, so a
// violation means the slab is corrupt). The caller must keep data alive —
// and unchanged — for as long as the vector is in use. Mutating methods
// (Set, Clear, Reset) panic on the returned view.
func FromBytes(n int, data []byte) (*Vector, error) {
	v := new(Vector)
	if err := ViewBytes(v, n, data); err != nil {
		return nil, err
	}
	return v, nil
}

// ViewBytes is FromBytes into a caller-allocated Vector, so a decoder
// viewing thousands of slabs can batch the Vector headers in one slice
// instead of allocating each individually. On error dst is left zeroed.
func ViewBytes(dst *Vector, n int, data []byte) error {
	*dst = Vector{}
	if n < 0 {
		return fmt.Errorf("bitvec: negative length %d", n)
	}
	words := NumWords(n)
	if len(data) != 8*words {
		return fmt.Errorf("bitvec: %d bytes for %d bits, want %d", len(data), n, 8*words)
	}
	v := Vector{n: n, ro: true}
	if words == 0 {
		*dst = v
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&data[0]))%8 == 0 {
		v.words = unsafe.Slice((*uint64)(unsafe.Pointer(&data[0])), words)
	} else {
		v.words = make([]uint64, words)
		v.ro = false
		for i := range v.words {
			v.words[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
	}
	if tail := uint(n % wordBits); tail != 0 {
		if v.words[words-1]>>tail != 0 {
			return fmt.Errorf("bitvec: set bits beyond length %d", n)
		}
	}
	*dst = v
	return nil
}

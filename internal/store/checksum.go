package store

import (
	"hash/crc32"
	"runtime"

	"github.com/urbandata/datapolygamy/internal/mapreduce"
)

// parallelChecksumMin is the payload size above which Checksum splits its
// input into one chunk per GOMAXPROCS and checksums the chunks at once:
// below it, starting the workers costs more than the pass they share.
const parallelChecksumMin = 1 << 20

// castagnoliPoly is the CRC-32C polynomial in the reversed (LSB-first) form
// hash/crc32 and the container use.
const castagnoliPoly = crc32.Castagnoli

var castagnoli = crc32.MakeTable(castagnoliPoly)

// x2n[k] is x^(2^k) modulo the polynomial, the powers combine raises by.
var x2n = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = multModP(p, p)
	}
	return t
}()

// Checksum computes the container format's payload checksum (CRC-32C,
// Castagnoli) over b: what Write records in the manifest, what Map and Read
// check every section against, and what a follower checks a downloaded
// section against. It is the one CRC-32C of the module outside bench/. A
// payload over parallelChecksumMin bytes is cut into GOMAXPROCS chunks
// that are checksummed at once and combined, so every byte is still read
// exactly once and the result equals crc32.Checksum(b, Castagnoli).
func Checksum(b []byte) uint32 {
	n := runtime.GOMAXPROCS(0)
	if n < 2 || len(b) <= parallelChecksumMin {
		return crc32.Checksum(b, castagnoli)
	}
	chunks := make([][]byte, 0, n)
	for i, size := 0, (len(b)+n-1)/n; i < len(b); i += size {
		chunks = append(chunks, b[i:min(i+size, len(b))])
	}
	// The chunk function never fails, so neither does ForEach.
	crcs, _ := mapreduce.ForEach(n, chunks, func(c []byte) (uint32, error) {
		return crc32.Checksum(c, castagnoli), nil
	})
	crc := crcs[0]
	for i, c := range crcs[1:] {
		crc = combine(crc, c, len(chunks[i+1]))
	}
	return crc
}

// combine returns the CRC of a message A‖B from crcA = CRC(A), crcB =
// CRC(B) and n = len(B): CRC(A) shifted past n zero bytes, which is a
// multiplication by x^(8n) modulo the polynomial, XOR CRC(B) (zlib's
// crc32_combine).
func combine(crcA, crcB uint32, n int) uint32 {
	return multModP(x2nModP(n, 3), crcA) ^ crcB
}

// multModP returns a·b modulo the polynomial, both in reversed bit order
// (the coefficient of x^0 is the top bit).
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				break
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ castagnoliPoly
		} else {
			b >>= 1
		}
	}
	return p
}

// x2nModP returns x^(n·2^k) modulo the polynomial.
func x2nModP(n int, k uint) uint32 {
	p := uint32(1) << 31 // x^0
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			p = multModP(x2n[k&31], p)
		}
		k++
	}
	return p
}

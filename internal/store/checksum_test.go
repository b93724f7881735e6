package store

import (
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// withProcs runs fn at GOMAXPROCS p and restores the previous setting.
func withProcs(t *testing.T, p int, fn func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	fn()
}

// TestChecksumMatchesCRC32 holds the chunked checksum to hash/crc32's
// CRC-32C on lengths from 0 to three split sizes, exact multiples of the
// split size and one byte either side of them included, at GOMAXPROCS 1, 2
// and 4: the chunks cut at other offsets for each, and combining them must
// not show.
func TestChecksumMatchesCRC32(t *testing.T) {
	const c = parallelChecksumMin
	buf := make([]byte, 3*c+1)
	rand.New(rand.NewSource(3)).Read(buf)
	lengths := []int{0, 1, 7, 8, 4093}
	for k := 1; k <= 3; k++ {
		lengths = append(lengths, k*c-1, k*c, k*c+1)
	}
	lengths = append(lengths, c+c/3, 2*c+12345)
	for _, p := range []int{1, 2, 4} {
		withProcs(t, p, func() {
			for _, n := range lengths {
				b := buf[:n]
				if got, want := Checksum(b), crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)); got != want {
					t.Errorf("GOMAXPROCS %d, %d bytes: Checksum %08x, crc32 %08x", p, n, got, want)
				}
			}
		})
	}
}

// TestChunkedSectionFlipRefused flips one byte in the last chunk of a
// section over the split size: Map and Read must both refuse the container
// as ErrCorrupt, at every GOMAXPROCS the check is chunked at.
func TestChunkedSectionFlipRefused(t *testing.T) {
	payload := make([]byte, 2*parallelChecksumMin+13)
	rand.New(rand.NewSource(5)).Read(payload)
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := Write(path, testManifest(), []Section{{Name: SectionIndex, Data: payload}}); err != nil {
		t.Fatal(err)
	}
	sf, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := sf.offsets[SectionIndex] + int64(len(payload)) - 2
	sf.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[at] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		withProcs(t, p, func() {
			if mp, err := Map(path); !errors.Is(err, ErrCorrupt) {
				if err == nil {
					mp.Close()
				}
				t.Errorf("GOMAXPROCS %d: Map err = %v, want ErrCorrupt", p, err)
			}
			if _, _, err := Read(path); !errors.Is(err, ErrCorrupt) {
				t.Errorf("GOMAXPROCS %d: Read err = %v, want ErrCorrupt", p, err)
			}
		})
	}
}

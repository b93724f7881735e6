package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	v := New(130) // crosses two word boundaries
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i)
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if v.Count() != len(idx) {
		t.Errorf("Count = %d, want %d", v.Count(), len(idx))
	}
	for _, i := range idx {
		v.Clear(i)
	}
	if v.Any() {
		t.Error("vector should be empty after clearing all bits")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range Set")
		}
	}()
	New(10).Set(10)
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative length")
		}
	}()
	New(-1)
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	New(10).And(New(11))
}

func TestAndOrAndNot(t *testing.T) {
	a, b := New(70), New(70)
	a.Set(1)
	a.Set(65)
	a.Set(69)
	b.Set(1)
	b.Set(2)
	b.Set(69)

	and := a.And(b)
	if got := and.Ones(); len(got) != 2 || got[0] != 1 || got[1] != 69 {
		t.Errorf("And ones = %v, want [1 69]", got)
	}
	or := a.Or(b)
	if or.Count() != 4 {
		t.Errorf("Or count = %d, want 4", or.Count())
	}
	diff := a.AndNot(b)
	if got := diff.Ones(); len(got) != 1 || got[0] != 65 {
		t.Errorf("AndNot ones = %v, want [65]", got)
	}
	a.OrWith(b)
	if !a.Equal(or) {
		t.Errorf("OrWith = %v, want %v", a.Ones(), or.Ones())
	}
}

func TestAndCountMatchesAnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		if a.AndCount(b) != a.And(b).Count() {
			t.Fatalf("AndCount != And().Count() at n=%d", n)
		}
	}
}

func TestAndAnyMatchesAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			// Sparse fills so both empty and non-empty intersections occur.
			if rng.Intn(8) == 0 {
				a.Set(i)
			}
			if rng.Intn(8) == 0 {
				b.Set(i)
			}
		}
		if got, want := a.AndAny(b), a.AndCount(b) > 0; got != want {
			t.Fatalf("AndAny = %v, AndCount > 0 = %v at n=%d", got, want, n)
		}
	}
	// Disjoint halves of one word must not intersect.
	a, b := New(64), New(64)
	for i := 0; i < 32; i++ {
		a.Set(i)
		b.Set(i + 32)
	}
	if a.AndAny(b) {
		t.Error("disjoint vectors reported intersecting")
	}
}

func TestOnesRoundTrip(t *testing.T) {
	v := New(200)
	want := []int{3, 64, 100, 199}
	for _, i := range want {
		v.Set(i)
	}
	got := v.Ones()
	if len(got) != len(want) {
		t.Fatalf("Ones = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ones = %v, want %v", got, want)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(64)
	a.Set(5)
	b := a.Clone()
	b.Set(6)
	if a.Get(6) {
		t.Error("mutating clone changed original")
	}
	if !b.Get(5) {
		t.Error("clone lost original bit")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(64), New(64)
	a.Set(10)
	b.Set(10)
	if !a.Equal(b) {
		t.Error("identical vectors not Equal")
	}
	b.Set(11)
	if a.Equal(b) {
		t.Error("different vectors reported Equal")
	}
	if a.Equal(New(65)) {
		t.Error("different lengths reported Equal")
	}
}

func TestReset(t *testing.T) {
	v := New(128)
	v.Set(0)
	v.Set(127)
	v.Reset()
	if v.Any() {
		t.Error("Reset left bits set")
	}
}

// TestResize: a vector re-sized in place reads all-zero at its new length
// whether it shrinks into its storage or grows past it, and its words show
// exactly the bits set since.
func TestResize(t *testing.T) {
	var v Vector
	for _, n := range []int{130, 64, 0, 7, 300} {
		v.Resize(n)
		if v.Len() != n || v.Any() || len(v.Words()) != NumWords(n) {
			t.Fatalf("Resize(%d): len %d, any %v, %d words", n, v.Len(), v.Any(), len(v.Words()))
		}
		if n > 0 {
			v.Set(n - 1)
			if w := v.Words()[(n-1)/64]; w != 1<<uint((n-1)%64) {
				t.Fatalf("Resize(%d): last word %#x after Set(%d)", n, w, n-1)
			}
		}
	}
}

func TestZeroLength(t *testing.T) {
	v := New(0)
	if v.Any() || v.Count() != 0 || len(v.Ones()) != 0 {
		t.Error("zero-length vector misbehaves")
	}
}

// Property: De Morgan-ish law |A∩B| + |A∖B| = |A|.
func TestPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				a.Set(i)
			}
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		return a.AndCount(b)+a.AndNot(b).Count() == a.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: union cardinality = |A| + |B| - |A∩B|.
func TestInclusionExclusion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		return a.Or(b).Count() == a.Count()+b.Count()-a.AndCount(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAndCount(b *testing.B) {
	n := 1 << 20
	x, y := New(n), New(n)
	for i := 0; i < n; i += 3 {
		x.Set(i)
	}
	for i := 0; i < n; i += 5 {
		y.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.AndCount(y)
	}
}

// ---- flat snapshot views (FromBytes / AppendWords) ----

func TestAppendWordsFromBytesRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		v := New(n)
		for i := 0; i < n; i += 7 {
			v.Set(i)
		}
		slab := v.AppendWords(make([]byte, 0, v.WordBytes()))
		if len(slab) != 8*NumWords(n) {
			t.Fatalf("n=%d: slab is %d bytes, want %d", n, len(slab), 8*NumWords(n))
		}
		got, err := FromBytes(n, slab)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.Equal(v) {
			t.Errorf("n=%d: view differs from original", n)
		}
		if got.Count() != v.Count() {
			t.Errorf("n=%d: Count %d, want %d", n, got.Count(), v.Count())
		}
	}
}

func TestFromBytesZeroCopyAliases(t *testing.T) {
	v := New(128)
	v.Set(3)
	slab := v.AppendWords(nil) // make/append yields 8-aligned storage
	view, err := FromBytes(128, slab)
	if err != nil {
		t.Fatal(err)
	}
	if view.Get(64) {
		t.Fatal("bit 64 unexpectedly set")
	}
	// Flip a bit in the backing slab: a zero-copy view must observe it.
	slab[8] |= 1
	if !view.Get(64) {
		t.Skip("view copied (unaligned buffer or big-endian host); aliasing not applicable")
	}
}

func TestFromBytesUnalignedCopies(t *testing.T) {
	v := New(64)
	v.Set(0)
	buf := make([]byte, 16)
	copy(buf[1:], v.AppendWords(nil))
	view, err := FromBytes(64, buf[1:9])
	if err != nil {
		t.Fatal(err)
	}
	if !view.Get(0) || view.Count() != 1 {
		t.Errorf("unaligned view decoded wrong: %v", view)
	}
}

func TestFromBytesRejectsBadInput(t *testing.T) {
	if _, err := FromBytes(-1, nil); err == nil {
		t.Error("negative length accepted")
	}
	if _, err := FromBytes(64, make([]byte, 7)); err == nil {
		t.Error("short slab accepted")
	}
	if _, err := FromBytes(64, make([]byte, 16)); err == nil {
		t.Error("long slab accepted")
	}
	// Set bits beyond n mean the slab cannot have come from AppendWords.
	slab := make([]byte, 8)
	slab[7] = 0x80 // bit 63
	if _, err := FromBytes(60, slab); err == nil {
		t.Error("tail bits beyond length accepted")
	}
}

func TestFromBytesViewIsReadOnly(t *testing.T) {
	v := New(64)
	v.Set(1)
	view, err := FromBytes(64, v.AppendWords(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !view.ro {
		t.Skip("view copied; writability is then acceptable")
	}
	for name, fn := range map[string]func(){
		"Set":    func() { view.Set(2) },
		"Clear":  func() { view.Clear(1) },
		"Reset":  func() { view.Reset() },
		"Resize": func() { view.Resize(64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a read-only view did not panic", name)
				}
			}()
			fn()
		}()
	}
	// Read-side operations (including allocating ops) still work.
	if view.Count() != 1 || !view.Get(1) {
		t.Error("read ops broken on read-only view")
	}
	if view.Or(New(64)).Count() != 1 {
		t.Error("Or on read-only view broken")
	}
	if c := view.Clone(); !c.Equal(view) {
		t.Error("Clone on read-only view broken")
	} else {
		c.Set(5) // clones are writable
	}
}

func TestGrow(t *testing.T) {
	v := New(70)
	v.Set(0)
	v.Set(69)
	g := v.Grow(200)
	if g.Len() != 200 || g.Count() != 2 || !g.Get(0) || !g.Get(69) {
		t.Fatalf("Grow lost bits: len %d count %d", g.Len(), g.Count())
	}
	g.Set(199) // grown vectors are writable
	if v.Len() != 70 {
		t.Error("Grow mutated the receiver")
	}
	defer func() {
		if recover() == nil {
			t.Error("shrinking Grow did not panic")
		}
	}()
	v.Grow(10)
}

func TestGrowReadOnlyView(t *testing.T) {
	v := New(64)
	v.Set(7)
	view, err := FromBytes(64, v.AppendWords(nil))
	if err != nil {
		t.Fatal(err)
	}
	g := view.Grow(128)
	if !g.Get(7) || g.Count() != 1 {
		t.Error("Grow on a read-only view lost bits")
	}
	g.Set(100) // must be writable even when the source was a view
}

// naiveCopyRange is the bit-by-bit oracle CopyRange is checked against.
func naiveCopyRange(dst, src *Vector, srcOff, dstOff, n int) {
	for i := 0; i < n; i++ {
		if src.Get(srcOff + i) {
			dst.Set(dstOff + i)
		} else {
			dst.Clear(dstOff + i)
		}
	}
}

func TestCopyRangeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		sn := 1 + rng.Intn(300)
		dn := 1 + rng.Intn(300)
		src, a, b := New(sn), New(dn), New(dn)
		for i := 0; i < sn; i++ {
			if rng.Intn(2) == 0 {
				src.Set(i)
			}
		}
		for i := 0; i < dn; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
				b.Set(i)
			}
		}
		n := rng.Intn(min(sn, dn) + 1)
		srcOff := rng.Intn(sn - n + 1)
		dstOff := rng.Intn(dn - n + 1)
		a.CopyRange(src, srcOff, dstOff, n)
		naiveCopyRange(b, src, srcOff, dstOff, n)
		if !a.Equal(b) {
			t.Fatalf("trial %d: CopyRange(src[%d:%d) -> dst[%d:%d)) mismatch",
				trial, srcOff, srcOff+n, dstOff, dstOff+n)
		}
	}
}

func TestAnyRangeAndMaskRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(260)
		v := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				v.Set(i)
			}
		}
		from := rng.Intn(n + 1)
		to := from + rng.Intn(n-from+1)
		wantAny := false
		for i := from; i < to; i++ {
			if v.Get(i) {
				wantAny = true
				break
			}
		}
		if got := v.AnyRange(from, to); got != wantAny {
			t.Fatalf("AnyRange(%d,%d) = %t, want %t (n=%d)", from, to, got, wantAny, n)
		}
		m := v.MaskRange(from, to)
		for i := 0; i < n; i++ {
			want := i >= from && i < to && v.Get(i)
			if m.Get(i) != want {
				t.Fatalf("MaskRange(%d,%d) bit %d = %t, want %t", from, to, i, m.Get(i), want)
			}
		}
	}
}

// And returns a new vector that is the bitwise AND of v and o.
// Both vectors must have the same length.
func (v *Vector) And(o *Vector) *Vector {
	v.checkLen(o)
	out := New(v.n)
	for i, w := range v.words {
		out.words[i] = w & o.words[i]
	}
	return out
}

// AndNot returns a new vector with the bits of v that are not in o (v &^ o).
func (v *Vector) AndNot(o *Vector) *Vector {
	v.checkLen(o)
	out := New(v.n)
	for i, w := range v.words {
		out.words[i] = w &^ o.words[i]
	}
	return out
}

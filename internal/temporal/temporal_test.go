package temporal

import (
	"testing"
	"testing/quick"
	"time"
)

func ts(y int, m time.Month, d, h, min, s int) int64 {
	return time.Date(y, m, d, h, min, s, 0, time.UTC).Unix()
}

func TestResolutionString(t *testing.T) {
	cases := map[Resolution]string{
		Second: "second", Hour: "hour", Day: "day", Week: "week", Month: "month",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), want)
		}
	}
	if Resolution(99).String() == "" {
		t.Error("invalid resolution should still stringify")
	}
}

func TestParseResolutionRoundTrip(t *testing.T) {
	for r := Second; r <= Month; r++ {
		got, err := ParseResolution(r.String())
		if err != nil || got != r {
			t.Errorf("ParseResolution(%q) = %v, %v", r.String(), got, err)
		}
	}
	if _, err := ParseResolution("fortnight"); err == nil {
		t.Error("expected error for unknown resolution")
	}
}

func TestBinHour(t *testing.T) {
	in := ts(2012, time.October, 29, 14, 35, 12)
	want := ts(2012, time.October, 29, 14, 0, 0)
	if got := Bin(in, Hour); got != want {
		t.Errorf("Bin hour = %d, want %d", got, want)
	}
}

func TestBinDay(t *testing.T) {
	in := ts(2011, time.August, 28, 23, 59, 59)
	want := ts(2011, time.August, 28, 0, 0, 0)
	if got := Bin(in, Day); got != want {
		t.Errorf("Bin day = %d, want %d", got, want)
	}
}

func TestBinWeekAnchoredMonday(t *testing.T) {
	// 2012-10-29 was a Monday (hurricane Sandy landfall).
	monday := ts(2012, time.October, 29, 0, 0, 0)
	if got := Bin(monday, Week); got != monday {
		t.Errorf("Monday should bin to itself: got %v", time.Unix(got, 0).UTC())
	}
	sunday := ts(2012, time.November, 4, 12, 0, 0)
	if got := Bin(sunday, Week); got != monday {
		t.Errorf("following Sunday should bin to same Monday: got %v", time.Unix(got, 0).UTC())
	}
	if wd := time.Unix(Bin(ts(2009, time.March, 14, 3, 0, 0), Week), 0).UTC().Weekday(); wd != time.Monday {
		t.Errorf("week bin starts on %v, want Monday", wd)
	}
}

func TestBinMonth(t *testing.T) {
	in := ts(2012, time.February, 29, 10, 0, 0) // leap day
	want := ts(2012, time.February, 1, 0, 0, 0)
	if got := Bin(in, Month); got != want {
		t.Errorf("Bin month = %d, want %d", got, want)
	}
}

func TestNextBinMonthVariableLength(t *testing.T) {
	feb := ts(2012, time.February, 1, 0, 0, 0)
	mar := ts(2012, time.March, 1, 0, 0, 0)
	if got := NextBin(feb, Month); got != mar {
		t.Errorf("NextBin(Feb 2012) = %v, want Mar 1", time.Unix(got, 0).UTC())
	}
	dec := ts(2011, time.December, 1, 0, 0, 0)
	jan := ts(2012, time.January, 1, 0, 0, 0)
	if got := NextBin(dec, Month); got != jan {
		t.Errorf("NextBin(Dec 2011) = %v, want Jan 1 2012", time.Unix(got, 0).UTC())
	}
}

func TestBinIdempotent(t *testing.T) {
	f := func(raw int64) bool {
		// Keep timestamps in a sane range (1970..2100) to avoid time overflow.
		v := raw % (4102444800)
		if v < 0 {
			v = -v
		}
		for r := Second; r <= Month; r++ {
			b := Bin(v, r)
			if Bin(b, r) != b {
				return false
			}
			if b > v {
				return false // bin start must not exceed the timestamp
			}
			if NextBin(b, r) <= b {
				return false // bins must advance
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConvertibleDAG(t *testing.T) {
	cases := []struct {
		from, to Resolution
		want     bool
	}{
		{Second, Month, true},
		{Second, Second, true},
		{Hour, Day, true},
		{Hour, Week, true},
		{Hour, Month, true},
		{Hour, Second, false},
		{Day, Week, true},
		{Day, Month, true},
		{Week, Month, true},
		{Month, Week, false},
		{Month, Month, true},
	}
	for _, c := range cases {
		if got := c.from.ConvertibleTo(c.to); got != c.want {
			t.Errorf("%v.ConvertibleTo(%v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestTimelineHourly(t *testing.T) {
	start := ts(2011, time.August, 27, 0, 0, 0)
	end := ts(2011, time.August, 28, 23, 0, 0)
	tl, err := NewTimeline(start, end, Hour)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Len() != 48 {
		t.Fatalf("Len = %d, want 48", tl.Len())
	}
	if tl.Index(start) != 0 {
		t.Errorf("Index(start) = %d, want 0", tl.Index(start))
	}
	if tl.Index(end) != 47 {
		t.Errorf("Index(end) = %d, want 47", tl.Index(end))
	}
	mid := ts(2011, time.August, 27, 13, 45, 0)
	if tl.Index(mid) != 13 {
		t.Errorf("Index(mid) = %d, want 13", tl.Index(mid))
	}
	if tl.Index(end+86400) != -1 {
		t.Error("timestamp outside timeline should return -1")
	}
	if tl.StepStart(13) != ts(2011, time.August, 27, 13, 0, 0) {
		t.Error("StepStart(13) wrong")
	}
	if tl.Res() != Hour {
		t.Errorf("Res = %v, want Hour", tl.Res())
	}
}

func TestTimelineMonthly(t *testing.T) {
	tl, err := NewTimeline(ts(2011, time.January, 15, 0, 0, 0), ts(2011, time.December, 2, 0, 0, 0), Month)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Len() != 12 {
		t.Fatalf("Len = %d, want 12 months", tl.Len())
	}
}

func TestTimelineErrors(t *testing.T) {
	if _, err := NewTimeline(10, 5, Hour); err == nil {
		t.Error("expected error when maxTS < minTS")
	}
	if _, err := NewTimeline(0, 10, Resolution(42)); err == nil {
		t.Error("expected error for invalid resolution")
	}
}

func TestTimelineSingleStep(t *testing.T) {
	v := ts(2013, time.July, 4, 12, 0, 0)
	tl, err := NewTimeline(v, v, Day)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Len() != 1 {
		t.Errorf("Len = %d, want 1", tl.Len())
	}
}

func TestSeasonKeyHourlyIsMonthly(t *testing.T) {
	a := SeasonKey(ts(2012, time.October, 1, 0, 0, 0), Hour)
	b := SeasonKey(ts(2012, time.October, 31, 23, 0, 0), Hour)
	c := SeasonKey(ts(2012, time.November, 1, 0, 0, 0), Hour)
	if a != b {
		t.Error("same month should share a season key at hourly resolution")
	}
	if a == c {
		t.Error("different months should differ at hourly resolution")
	}
}

func TestSeasonKeyDailyIsQuarterly(t *testing.T) {
	q1a := SeasonKey(ts(2012, time.January, 5, 0, 0, 0), Day)
	q1b := SeasonKey(ts(2012, time.March, 20, 0, 0, 0), Day)
	q2 := SeasonKey(ts(2012, time.April, 2, 0, 0, 0), Day)
	if q1a != q1b {
		t.Error("Jan and Mar should share a quarter")
	}
	if q1a == q2 {
		t.Error("Q1 and Q2 should differ")
	}
}

func TestSeasonKeyCoarseIsGlobal(t *testing.T) {
	if SeasonKey(ts(2010, time.June, 1, 0, 0, 0), Week) != SeasonKey(ts(2014, time.January, 1, 0, 0, 0), Week) {
		t.Error("weekly resolution should use one global interval")
	}
	if SeasonKey(ts(2010, time.June, 1, 0, 0, 0), Month) != 0 {
		t.Error("monthly season key should be 0")
	}
}

func TestFloorDivNegative(t *testing.T) {
	// Timestamps before the Monday epoch must still bin to a Monday.
	early := ts(1970, time.January, 1, 12, 0, 0) // Thursday
	b := Bin(early, Week)
	if wd := time.Unix(b, 0).UTC().Weekday(); wd != time.Monday {
		t.Errorf("pre-anchor week bin starts on %v, want Monday", wd)
	}
	if b > early {
		t.Error("bin start after timestamp")
	}
}

func TestTimelineTiles(t *testing.T) {
	// 400 days of daily steps: two tiles at Day resolution (width 366).
	start := ts(2011, time.January, 1, 0, 0, 0)
	end := start + 399*86400
	tl, err := NewTimeline(start, end, Day)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Len() != 400 {
		t.Fatalf("Len = %d, want 400", tl.Len())
	}
	if tl.NumTiles() != 2 {
		t.Fatalf("NumTiles = %d, want 2", tl.NumTiles())
	}
	if lo, hi := tl.TileBounds(0); lo != 0 || hi != 366 {
		t.Errorf("TileBounds(0) = [%d,%d), want [0,366)", lo, hi)
	}
	if lo, hi := tl.TileBounds(1); lo != 366 || hi != 400 {
		t.Errorf("TileBounds(1) = [%d,%d), want [366,400)", lo, hi)
	}
	if tl.TileOfStep(365) != 0 || tl.TileOfStep(366) != 1 {
		t.Error("TileOfStep at the tile boundary is wrong")
	}
	sub := tl.Slice(366, 400)
	if sub.Len() != 34 || sub.StepStart(0) != tl.StepStart(366) {
		t.Errorf("Slice(366,400): len %d, start %d", sub.Len(), sub.StepStart(0))
	}
	if sub.Index(tl.StepStart(370)) != 4 {
		t.Error("sliced timeline does not re-base indices")
	}
	if sub.Index(tl.StepStart(0)) != -1 {
		t.Error("sliced timeline indexes steps outside its range")
	}
}

func TestTimelineExtendEqualsRebuild(t *testing.T) {
	start := ts(2011, time.January, 1, 0, 0, 0)
	for _, r := range []Resolution{Hour, Day, Week, Month} {
		old, err := NewTimeline(start, start+100*86400, r)
		if err != nil {
			t.Fatal(err)
		}
		newMax := start + 500*86400
		ext, err := old.Extend(newMax)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewTimeline(start, newMax, r)
		if err != nil {
			t.Fatal(err)
		}
		if ext.Len() != fresh.Len() {
			t.Fatalf("%s: extended len %d != rebuilt %d", r, ext.Len(), fresh.Len())
		}
		for i := 0; i < ext.Len(); i++ {
			if ext.StepStart(i) != fresh.StepStart(i) {
				t.Fatalf("%s: step %d start %d != %d", r, i, ext.StepStart(i), fresh.StepStart(i))
			}
		}
		for i := 0; i < old.Len(); i++ {
			if ext.StepStart(i) != old.StepStart(i) {
				t.Fatalf("%s: extension moved step %d", r, i)
			}
		}
		if ext.Index(fresh.StepStart(fresh.Len()-1)) != fresh.Len()-1 {
			t.Errorf("%s: extended index lookup broken", r)
		}
	}
}

func TestTimelineExtendNoop(t *testing.T) {
	start := ts(2011, time.January, 1, 0, 0, 0)
	tl, _ := NewTimeline(start, start+10*86400, Day)
	same, err := tl.Extend(start + 10*86400)
	if err != nil {
		t.Fatal(err)
	}
	if same.Len() != tl.Len() {
		t.Errorf("no-op extend changed length: %d -> %d", tl.Len(), same.Len())
	}
	if _, err := tl.Extend(start - 86400); err == nil {
		t.Error("extend into the past should fail")
	}
}

// mapIndex is the reference step lookup: a map from step start to index,
// built from the timeline's own starts.
func mapIndex(tl *Timeline) func(ts int64) int {
	idx := make(map[int64]int, tl.Len())
	for i := 0; i < tl.Len(); i++ {
		idx[tl.StepStart(i)] = i
	}
	return func(ts int64) int {
		if i, ok := idx[Bin(ts, tl.Res())]; ok {
			return i
		}
		return -1
	}
}

// checkIndex probes tl.Index against the map lookup at every step start,
// one second either side of it, mid-step, and well outside the range.
func checkIndex(t *testing.T, what string, tl *Timeline) {
	t.Helper()
	want := mapIndex(tl)
	first, last := tl.StepStart(0), tl.StepStart(tl.Len()-1)
	probes := []int64{first - 400*86400, first - 1, last + 400*86400, NextBin(last, tl.Res()), NextBin(last, tl.Res()) - 1}
	for i := 0; i < tl.Len(); i++ {
		b := tl.StepStart(i)
		probes = append(probes, b, b-1, b+1, b+(NextBin(b, tl.Res())-b)/2)
	}
	for _, ts := range probes {
		if got, w := tl.Index(ts), want(ts); got != w {
			t.Fatalf("%s: Index(%s) = %d, map says %d", what, time.Unix(ts, 0).UTC(), got, w)
		}
	}
}

func TestTimelineIndexMatchesMap(t *testing.T) {
	for _, r := range []Resolution{Second, Hour, Day, Week, Month} {
		// Across a year boundary and a leap February.
		lo, hi := ts(2011, time.November, 14, 7, 30, 0), ts(2012, time.March, 2, 5, 0, 0)
		if r == Second {
			lo, hi = ts(2011, time.December, 31, 23, 58, 0), ts(2012, time.January, 1, 0, 1, 0)
		}
		tl, err := NewTimeline(lo, hi, r)
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(t, r.String(), tl)
		n := tl.Len()
		checkIndex(t, r.String()+" slice", tl.Slice(n/3, n-1))
		checkIndex(t, r.String()+" one-step slice", tl.Slice(n-1, n))
		sub := tl.Slice(1, n)
		if got := sub.Index(tl.StepStart(2)); got != 1 {
			t.Errorf("%s: sliced Index = %d, want 1 (re-based)", r, got)
		}
		if got := sub.Index(tl.StepStart(0)); got != -1 {
			t.Errorf("%s: sliced Index of a step before the slice = %d, want -1", r, got)
		}
		ext, err := tl.Extend(hi + 40*86400)
		if r == Second {
			ext, err = tl.Extend(hi + 90)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(t, r.String()+" extended", ext)
		if got := ext.Index(NextBin(tl.StepStart(n-1), r)); got != n {
			t.Errorf("%s: first extended step Index = %d, want %d", r, got, n)
		}
		if got := tl.Index(NextBin(tl.StepStart(n-1), r)); got != -1 {
			t.Errorf("%s: extending changed the original timeline: Index = %d", r, got)
		}
	}
}

func TestTimelineIndexMonthBoundaries(t *testing.T) {
	tl, err := NewTimeline(ts(2011, time.November, 20, 0, 0, 0), ts(2012, time.March, 1, 0, 0, 0), Month)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ts   int64
		want int
	}{
		{ts(2011, time.October, 31, 23, 59, 59), -1},
		{ts(2011, time.November, 1, 0, 0, 0), 0},
		{ts(2011, time.December, 31, 23, 59, 59), 1},
		{ts(2012, time.January, 1, 0, 0, 0), 2},
		{ts(2012, time.February, 29, 23, 59, 59), 3},
		{ts(2012, time.March, 31, 23, 59, 59), 4},
		{ts(2012, time.April, 1, 0, 0, 0), -1},
	}
	for _, c := range cases {
		if got := tl.Index(c.ts); got != c.want {
			t.Errorf("Index(%s) = %d, want %d", time.Unix(c.ts, 0).UTC(), got, c.want)
		}
	}
}

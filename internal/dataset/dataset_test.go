package dataset

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

func sample() *Dataset {
	return &Dataset{
		Name:        "taxi",
		SpatialRes:  spatial.GPS,
		TemporalRes: temporal.Second,
		HasID:       true,
		Attrs:       []string{"fare", "miles"},
		Tuples: []Tuple{
			{ID: 100, X: 1.5, Y: 2.5, Region: -1, TS: 1_300_000_000, Values: []float64{12.5, 3.1}},
			{ID: 101, X: 4.0, Y: 8.0, Region: -1, TS: 1_300_000_060, Values: []float64{9.0, Missing()}},
			{ID: 100, X: 2.0, Y: 2.0, Region: -1, TS: 1_300_003_600, Values: []float64{22.0, 8.8}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if _, err := sample().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	d := sample()
	d.Name = ""
	if _, err := d.Validate(); err == nil {
		t.Error("expected error for empty name")
	}

	d = sample()
	d.SpatialRes = spatial.Resolution(77)
	if _, err := d.Validate(); err == nil {
		t.Error("expected error for bad spatial resolution")
	}

	d = sample()
	d.TemporalRes = temporal.Resolution(77)
	if _, err := d.Validate(); err == nil {
		t.Error("expected error for bad temporal resolution")
	}

	d = sample()
	d.Tuples[1].Values = []float64{1}
	if _, err := d.Validate(); err == nil {
		t.Error("expected error for wrong arity")
	}

	d = sample()
	d.SpatialRes = spatial.ZipCode
	if _, err := d.Validate(); err == nil {
		t.Error("expected error for negative region at polygon resolution")
	}
}

func TestTimeRange(t *testing.T) {
	d := sample()
	lo, hi, ok := d.TimeRange()
	if !ok || lo != 1_300_000_000 || hi != 1_300_003_600 {
		t.Errorf("TimeRange = %d %d %v", lo, hi, ok)
	}
	empty := &Dataset{Name: "e"}
	if _, _, ok := empty.TimeRange(); ok {
		t.Error("empty dataset should report ok=false")
	}
}

// TestValidateSpan: the span Validate returns from its one pass is the
// range TimeRange returns, whatever the tuple order, and a data set with a
// bad tuple fails on the first one, with the error ValidateTuple gives it.
func TestValidateSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := range 50 {
		d := sample()
		d.Tuples = nil
		for range 1 + rng.Intn(20) {
			d.Tuples = append(d.Tuples, Tuple{TS: rng.Int63n(1 << 40), Values: []float64{1, 2}})
		}
		span, err := d.Validate()
		lo, hi, _ := d.TimeRange()
		if err != nil || span != (Span{lo, hi}) {
			t.Fatalf("trial %d: Validate = %+v, %v; TimeRange = [%d, %d]", trial, span, err, lo, hi)
		}
		bad := rng.Intn(len(d.Tuples))
		for i := bad; i < len(d.Tuples); i += 2 {
			d.Tuples[i].Values = d.Tuples[i].Values[:1]
		}
		want := d.ValidateTuple(bad)
		if span, err := d.Validate(); want == nil || err == nil || err.Error() != want.Error() || span != (Span{}) {
			t.Fatalf("trial %d: Validate = %+v, %v; want the zero span and %v", trial, span, err, want)
		}
	}
	if span, err := (&Dataset{Name: "e", SpatialRes: spatial.GPS, TemporalRes: temporal.Hour}).Validate(); err != nil || span != (Span{}) {
		t.Errorf("empty data set: Validate = %+v, %v; want the zero span", span, err)
	}
}

func TestAttrIndex(t *testing.T) {
	d := sample()
	if d.AttrIndex("fare") != 0 || d.AttrIndex("miles") != 1 {
		t.Error("AttrIndex wrong for existing attrs")
	}
	if d.AttrIndex("tips") != -1 {
		t.Error("AttrIndex should be -1 for unknown attr")
	}
}

func TestNumScalarFunctions(t *testing.T) {
	d := sample()
	// density + unique + 2 attributes = 4
	if n := d.NumScalarFunctions(); n != 4 {
		t.Errorf("NumScalarFunctions = %d, want 4", n)
	}
	d.HasID = false
	if n := d.NumScalarFunctions(); n != 3 {
		t.Errorf("NumScalarFunctions = %d, want 3 without ID", n)
	}
}

func TestFilter(t *testing.T) {
	d := sample()
	f := d.Filter("taxi2011", func(tp Tuple) bool { return tp.TS < 1_300_000_100 })
	if len(f.Tuples) != 2 {
		t.Errorf("filtered tuples = %d, want 2", len(f.Tuples))
	}
	if f.Name != "taxi2011" {
		t.Errorf("filtered name = %q", f.Name)
	}
	if len(d.Tuples) != 3 {
		t.Error("Filter must not modify the original")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || got.SpatialRes != d.SpatialRes || got.TemporalRes != d.TemporalRes || got.HasID != d.HasID {
		t.Error("metadata mismatch after round trip")
	}
	if len(got.Attrs) != 2 || got.Attrs[0] != "fare" {
		t.Errorf("attrs = %v", got.Attrs)
	}
	if len(got.Tuples) != 3 {
		t.Fatalf("tuples = %d, want 3", len(got.Tuples))
	}
	if got.Tuples[0].ID != 100 || got.Tuples[0].X != 1.5 || got.Tuples[0].Values[0] != 12.5 {
		t.Errorf("tuple 0 mismatch: %+v", got.Tuples[0])
	}
	if !math.IsNaN(got.Tuples[1].Values[1]) {
		t.Error("missing value should survive as NaN")
	}
}

func TestReadCSVErrors(t *testing.T) {
	const head = "name,d,city,hour,false\nid,x,y,region,ts,a\n"
	cases := []struct {
		name, in string
		want     string // a substring of the error, "" for any error
	}{
		{"empty", "", ""},
		{"bad meta", "x,y\n", ""},
		{"bad sres", "name,d,blah,hour,false\nid,x,y,region,ts\n", ""},
		{"bad tres", "name,d,city,blah,false\nid,x,y,region,ts\n", ""},
		{"bad hasid", "name,d,city,hour,maybe\nid,x,y,region,ts\n", ""},
		{"bad header", "name,d,city,hour,false\nfoo,x,y,region,ts\n", ""},
		{"short header", "name,d,city,hour,false\nid,x\n", ""},
		{"bad id", "name,d,city,hour,false\nid,x,y,region,ts\nzz,0,0,0,5\n", "line 3 id:"},
		{"bad ts", "name,d,city,hour,false\nid,x,y,region,ts\n1,0,0,0,zz\n", "line 3 ts:"},
		{"bad attr value", head + "1,0,0,0,5,zz\n", "line 3 attr a:"},
		// Lines are physical lines: blank lines count.
		{"blank line before a bad record", head + "1,0,0,0,5,1\n\n\r\n1,0,0,0,5,zz\n", "line 6 attr a:"},
		{"quoted data field", head + "1,0,0,0,5,1\n1,0,0,0,5,\"2\"\n", "line 4: quoted field"},
		{"extra fields", head + "1,0,0,0,5,1,2\n", "line 3 has 7 fields, want 6"},
	}
	for _, c := range cases {
		_, err := ReadCSV(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	if _, err := ReadCSV(strings.NewReader(head + "1,0,0,0,5,\"2\"\n")); !errors.Is(err, ErrQuotedField) {
		t.Errorf("a quoted data field fails with %v, want ErrQuotedField", err)
	}
}

func TestCSVEmptyDataset(t *testing.T) {
	d := &Dataset{Name: "empty", SpatialRes: spatial.City, TemporalRes: temporal.Week, Attrs: []string{"price"}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != 0 {
		t.Errorf("tuples = %d, want 0", len(got.Tuples))
	}
}

func TestMissingSentinel(t *testing.T) {
	if !IsMissing(Missing()) {
		t.Error("Missing() should be missing")
	}
	if IsMissing(0) || IsMissing(-1) {
		t.Error("ordinary values are not missing")
	}
}

package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// oracleReadCSV is the previous reader — every line through encoding/csv,
// one []float64 per tuple — kept as the reference twin of ReadCSV. Its
// line numbers count records, not physical lines; callers compare verdicts
// and tuples, not messages.
func oracleReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	meta, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading metadata: %w", err)
	}
	if len(meta) != 5 || meta[0] != "name" {
		return nil, fmt.Errorf("dataset: malformed metadata line %v", meta)
	}
	sres, err := spatial.ParseResolution(meta[2])
	if err != nil {
		return nil, err
	}
	tres, err := temporal.ParseResolution(meta[3])
	if err != nil {
		return nil, err
	}
	hasID, err := strconv.ParseBool(meta[4])
	if err != nil {
		return nil, fmt.Errorf("dataset: bad hasID %q: %w", meta[4], err)
	}
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	if len(header) < len(csvHeaderPrefix) {
		return nil, fmt.Errorf("dataset: header too short: %v", header)
	}
	for i, want := range csvHeaderPrefix {
		if header[i] != want {
			return nil, fmt.Errorf("dataset: header column %d is %q, want %q", i, header[i], want)
		}
	}
	d := &Dataset{
		Name:        meta[1],
		SpatialRes:  sres,
		TemporalRes: tres,
		HasID:       hasID,
		Attrs:       append([]string{}, header[len(csvHeaderPrefix):]...),
	}
	for lineNo := 3; ; lineNo++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", lineNo, len(rec), len(header))
		}
		var t Tuple
		if t.ID, err = strconv.ParseInt(rec[0], 10, 64); err != nil {
			return nil, fmt.Errorf("dataset: line %d id: %w", lineNo, err)
		}
		if t.X, err = strconv.ParseFloat(rec[1], 64); err != nil {
			return nil, fmt.Errorf("dataset: line %d x: %w", lineNo, err)
		}
		if t.Y, err = strconv.ParseFloat(rec[2], 64); err != nil {
			return nil, fmt.Errorf("dataset: line %d y: %w", lineNo, err)
		}
		if t.Region, err = strconv.Atoi(rec[3]); err != nil {
			return nil, fmt.Errorf("dataset: line %d region: %w", lineNo, err)
		}
		if t.TS, err = strconv.ParseInt(rec[4], 10, 64); err != nil {
			return nil, fmt.Errorf("dataset: line %d ts: %w", lineNo, err)
		}
		t.Values = make([]float64, len(d.Attrs))
		for i := range d.Attrs {
			f := rec[5+i]
			if f == "" {
				t.Values[i] = Missing()
				continue
			}
			if t.Values[i], err = strconv.ParseFloat(f, 64); err != nil {
				return nil, fmt.Errorf("dataset: line %d attr %s: %w", lineNo, d.Attrs[i], err)
			}
		}
		d.Tuples = append(d.Tuples, t)
	}
	if _, err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// sameDataset reports how a differs from b: metadata, attributes, and every
// tuple bit for bit (NaN payloads and zero signs included).
func sameDataset(a, b *Dataset) error {
	if a.Name != b.Name || a.SpatialRes != b.SpatialRes || a.TemporalRes != b.TemporalRes || a.HasID != b.HasID {
		return fmt.Errorf("metadata %q %v %v %v, want %q %v %v %v",
			a.Name, a.SpatialRes, a.TemporalRes, a.HasID, b.Name, b.SpatialRes, b.TemporalRes, b.HasID)
	}
	if !reflect.DeepEqual(a.Attrs, b.Attrs) {
		return fmt.Errorf("attrs %q, want %q", a.Attrs, b.Attrs)
	}
	if len(a.Tuples) != len(b.Tuples) {
		return fmt.Errorf("%d tuples, want %d", len(a.Tuples), len(b.Tuples))
	}
	bits := math.Float64bits
	for i := range a.Tuples {
		x, y := &a.Tuples[i], &b.Tuples[i]
		same := x.ID == y.ID && bits(x.X) == bits(y.X) && bits(x.Y) == bits(y.Y) &&
			x.Region == y.Region && x.TS == y.TS && len(x.Values) == len(y.Values)
		for j := 0; same && j < len(x.Values); j++ {
			same = bits(x.Values[j]) == bits(y.Values[j])
		}
		if !same {
			return fmt.Errorf("tuple %d = %+v, want %+v", i, *x, *y)
		}
	}
	return nil
}

// checkAgainstOracle reads in with ReadCSV and with the oracle. Both must
// accept or both reject, except that ReadCSV rejects a quote in a data
// line (ErrQuotedField) that the oracle reads as a quoted field; what both
// accept must be the same data set.
func checkAgainstOracle(t *testing.T, in []byte) {
	t.Helper()
	want, werr := oracleReadCSV(bytes.NewReader(in))
	got, err := ReadCSV(bytes.NewReader(in))
	if errors.Is(err, ErrQuotedField) {
		if _, body, _, herr := readCSVHeader(in); herr != nil || !bytes.Contains(body, []byte{'"'}) {
			t.Fatalf("ReadCSV(%q) reports a quoted field where the data lines have none", in)
		}
		return
	}
	if (err == nil) != (werr == nil) {
		t.Fatalf("ReadCSV(%q): error %v, oracle error %v", in, err, werr)
	}
	if err != nil {
		return
	}
	if diff := sameDataset(got, want); diff != nil {
		t.Fatalf("ReadCSV(%q): %v", in, diff)
	}
}

// csvCorpus is a data set with every kind of value WriteCSV writes:
// missing values, negative zero, huge and tiny magnitudes, infinities.
func csvCorpus(rows int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Name: "mixed, \"quoted\" name", SpatialRes: spatial.GPS, TemporalRes: temporal.Second,
		HasID: true, Attrs: []string{"a", "b,c", "d"}}
	special := []float64{0, math.Copysign(0, -1), 1e300, -4.9e-324, math.Inf(1), math.Inf(-1), Missing(), 0.1}
	for i := 0; i < rows; i++ {
		t := Tuple{ID: rng.Int63n(1000) - 500, X: rng.Float64() * 16, Y: rng.NormFloat64(), Region: -1,
			TS: 1_300_000_000 + rng.Int63n(1e6)}
		for range d.Attrs {
			v := rng.NormFloat64() * 100
			if rng.Intn(4) == 0 {
				v = special[rng.Intn(len(special))]
			}
			t.Values = append(t.Values, v)
		}
		d.Tuples = append(d.Tuples, t)
	}
	return d
}

func writeCSV(t testing.TB, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadDir: a directory's *.csv files load in name order, other files
// are ignored, a file that fails to parse is named in the error, and a
// directory without a .csv file is an error.
func TestReadDir(t *testing.T) {
	dir := t.TempDir()
	a, b := sample(), csvCorpus(40, 3)
	a.Name, b.Name = "a", "b"
	for name, data := range map[string][]byte{
		"b.csv": writeCSV(t, b), "a.csv": writeCSV(t, a), "notes.txt": []byte("not a data set"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ReadDir loaded %d data sets, want 2", len(got))
	}
	for i, want := range []*Dataset{a, b} {
		if diff := sameDataset(got[i], want); diff != nil {
			t.Errorf("data set %d: %v", i, diff)
		}
	}

	bad := filepath.Join(dir, "c.csv")
	if err := os.WriteFile(bad, []byte("name,c,city,hour,false\nid,x,y,region,ts\nzz,0,0,0,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil || !strings.HasPrefix(err.Error(), bad+":") {
		t.Errorf("malformed %s: error %v, want one naming the file", bad, err)
	}

	empty := t.TempDir()
	if _, err := ReadDir(empty); err == nil || err.Error() != "no .csv files in "+empty {
		t.Errorf("empty directory: error %v, want \"no .csv files in %s\"", err, empty)
	}
}

// TestReadCSVChunked pins that the result of ReadCSV depends neither on
// how the data lines are chunked nor on how many workers parse the chunks:
// the tuples, and the line of the first error, are the same at every chunk
// size and at GOMAXPROCS 1, 2 and 4.
func TestReadCSVChunked(t *testing.T) {
	d := csvCorpus(3000, 1)
	good := writeCSV(t, d)
	// A bad value on a line late in the data, after blank and CRLF lines.
	lines := strings.Split(string(good), "\n")
	lines[1500] += "\r"
	lines = append(lines[:700], append([]string{"", "\r"}, lines[700:]...)...)
	bad := append([]string(nil), lines...)
	bad[2400] = strings.Replace(bad[2400], ",", ",x", 1)
	bad[2900] = strings.Replace(bad[2900], ",", ",y", 1)
	inputs := map[string][]byte{
		"written": good,
		"edited":  []byte(strings.Join(lines, "\n")),
		"bad":     []byte(strings.Join(bad, "\n")),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, in := range inputs {
		want, werr := readCSV(in, len(in)+1, 1)
		if name == "bad" {
			if werr == nil || !strings.Contains(werr.Error(), "line 2401 ") {
				t.Fatalf("bad input: error %v, want one on line 2401", werr)
			}
		} else if werr != nil {
			t.Fatalf("%s: %v", name, werr)
		} else if err := sameDataset(want, d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, chunk := range []int{1, 100, 4096, csvChunkBytes} {
				got, err := ReadCSV(bytes.NewReader(in))
				if chunk != csvChunkBytes {
					got, err = readCSV(in, chunk, procs)
				}
				if fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("%s, GOMAXPROCS %d, chunks of %d: error %v, want %v", name, procs, chunk, err, werr)
				}
				if err == nil {
					if diff := sameDataset(got, want); diff != nil {
						t.Fatalf("%s, GOMAXPROCS %d, chunks of %d: %v", name, procs, chunk, diff)
					}
				}
			}
		}
	}
}

// readCSVSeeds are WriteCSV output, CRLF endings, a quoted name, blank
// lines, bad records and inputs shorter than one chunk.
func readCSVSeeds(t testing.TB) [][]byte {
	written := writeCSV(t, csvCorpus(6, 2))
	head := "name,d,city,hour,true\nid,x,y,region,ts,a\n"
	return [][]byte{
		written,
		bytes.ReplaceAll(written, []byte("\n"), []byte("\r\n")),
		writeCSV(t, sample()),
		writeCSV(t, &Dataset{Name: "empty", SpatialRes: spatial.City, TemporalRes: temporal.Week, Attrs: []string{"p"}}),
		[]byte("\"name\",\"a \"\"b\"\"\",zip,day,false\r\n\r\nid,x,y,region,ts\r\n\r\n7,0,0,3,100\r\n\r\n"),
		[]byte(head + "1,0,0,0,5,2.5\n\n\n2,1,1,1,6,\n"),
		[]byte(head + "1,0,0,0,5,2.5\r"),
		[]byte(head + "1,0,0,0,5,\"2.5\"\n"),
		[]byte(head + "1,0,0,0,5,2.5,9\n"),
		[]byte(head + "1,0,0,0,5\n"),
		[]byte(head + "\n1,0,0,0,zz,1\n"),
		[]byte(head + "1,0,0,-1,5,1\n"),
		[]byte(head + " 1,0,0,0,5,1\n"),
		[]byte(head + "1,0,0,0,5,1\r\r\n"),
		[]byte("name,d,zip,hour,false\nid,x,y,region,ts\n1,0,0,-1,5\n"),
		[]byte("name,d,city,hour,false\nid,x,y,region,ts"),
		[]byte(""),
	}
}

// FuzzReadCSV checks ReadCSV against the encoding/csv oracle on arbitrary
// input: the same verdict, and on acceptance bit-identical tuples. Plain
// go test runs it on the seeds.
func FuzzReadCSV(f *testing.F) {
	for _, in := range readCSVSeeds(f) {
		f.Add(in)
	}
	f.Fuzz(checkAgainstOracle)
}

package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"

	"github.com/urbandata/datapolygamy/internal/mapreduce"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// csvHeaderPrefix is the fixed prefix of the tuple columns.
var csvHeaderPrefix = []string{"id", "x", "y", "region", "ts"}

// ErrQuotedField reports a quote in a data line: the data lines are split
// on bytes, not read as CSV, and WriteCSV never quotes a number.
var ErrQuotedField = errors.New("quoted field in a data line")

// csvChunkBytes is the size of the line-aligned chunks ReadCSV parses the
// data lines in, one worker-pool input each.
const csvChunkBytes = 256 << 10

// WriteCSV serialises the data set. The format is:
//
//	line 1: name,<name>,<spatialRes>,<temporalRes>,<hasID>
//	line 2: id,x,y,region,ts,<attr1>,...,<attrK>
//	lines:  one tuple per line; missing values are empty fields.
//
// A name is quoted where CSV needs it; a number never is, which is what
// lets ReadCSV split the data lines on bytes.
func WriteCSV(w io.Writer, d *Dataset) error {
	if _, err := d.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	meta := []string{"name", d.Name, d.SpatialRes.String(), d.TemporalRes.String(), strconv.FormatBool(d.HasID)}
	if err := cw.Write(meta); err != nil {
		return err
	}
	header := append(append([]string{}, csvHeaderPrefix...), d.Attrs...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, t := range d.Tuples {
		row[0] = strconv.FormatInt(t.ID, 10)
		row[1] = strconv.FormatFloat(t.X, 'g', -1, 64)
		row[2] = strconv.FormatFloat(t.Y, 'g', -1, 64)
		row[3] = strconv.Itoa(t.Region)
		row[4] = strconv.FormatInt(t.TS, 10)
		for i, v := range t.Values {
			if IsMissing(v) {
				row[5+i] = ""
			} else {
				row[5+i] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a data set written by WriteCSV. The two header lines are
// read as CSV. The data lines are split on bytes into one backing array of
// attribute values, in line-aligned chunks parsed on the worker pool
// (mapreduce.ForEach). Blank lines are skipped, a line may end in CRLF,
// and an error names the physical line it is on: the first bad one,
// whatever the chunking.
func ReadCSV(r io.Reader) (*Dataset, error) {
	var buf bytes.Buffer
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil {
			buf.Grow(int(fi.Size()) + bytes.MinRead) // one allocation for a file
		}
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("dataset: reading: %w", err)
	}
	return readCSV(buf.Bytes(), csvChunkBytes, runtime.GOMAXPROCS(0))
}

// ReadDir reads every *.csv file in dir with ReadCSV, in the lexical order
// filepath.Glob returns them. A directory without one is an error, and a
// file that fails to read or parse is named in the error.
func ReadDir(dir string) ([]*Dataset, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .csv files in %s", dir)
	}
	out := make([]*Dataset, 0, len(files))
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		d, err := ReadCSV(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// readCSV is ReadCSV over data, parsed in chunks of about chunkBytes on
// the given number of workers.
func readCSV(data []byte, chunkBytes, workers int) (*Dataset, error) {
	d, body, line, err := readCSVHeader(data)
	if err != nil {
		return nil, err
	}
	// Every data line has a tuple slot, and its values a slot in one
	// backing array; the slots of blank lines, left without Values, are
	// dropped once the chunks are parsed.
	var chunks []csvChunk
	lines := 0
	for len(body) > 0 {
		n := min(chunkBytes, len(body))
		if i := bytes.IndexByte(body[n-1:], '\n'); i >= 0 {
			n += i
		} else {
			n = len(body)
		}
		chunks = append(chunks, csvChunk{data: body[:n], line: line + lines, first: lines})
		lines += bytes.Count(body[:n], []byte{'\n'})
		if body[n-1] != '\n' {
			lines++ // the last line lacks its newline
		}
		body = body[n:]
	}
	d.Tuples = make([]Tuple, lines)
	values := make([]float64, lines*len(d.Attrs))
	if _, err := mapreduce.ForEach(workers, chunks, func(c csvChunk) (struct{}, error) {
		return struct{}{}, c.parse(d, values)
	}); err != nil {
		return nil, errors.Unwrap(err) // ForEach wraps the lowest failing chunk's error
	}
	d.Tuples = slices.DeleteFunc(d.Tuples, func(t Tuple) bool { return t.Values == nil })
	if _, err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// readCSVHeader reads the metadata and header lines of data and returns
// the data set they describe, the data lines that follow them and the
// physical line number of the first of those.
func readCSVHeader(data []byte) (*Dataset, []byte, int, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	meta, err := cr.Read()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dataset: reading metadata: %w", err)
	}
	if len(meta) != 5 || meta[0] != "name" {
		return nil, nil, 0, fmt.Errorf("dataset: malformed metadata line %v", meta)
	}
	sres, err := spatial.ParseResolution(meta[2])
	if err != nil {
		return nil, nil, 0, err
	}
	tres, err := temporal.ParseResolution(meta[3])
	if err != nil {
		return nil, nil, 0, err
	}
	hasID, err := strconv.ParseBool(meta[4])
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dataset: bad hasID %q: %w", meta[4], err)
	}
	header, err := cr.Read()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dataset: reading header: %w", err)
	}
	if len(header) < len(csvHeaderPrefix) {
		return nil, nil, 0, fmt.Errorf("dataset: header too short: %v", header)
	}
	for i, want := range csvHeaderPrefix {
		if header[i] != want {
			return nil, nil, 0, fmt.Errorf("dataset: header column %d is %q, want %q", i, header[i], want)
		}
	}
	d := &Dataset{
		Name:        meta[1],
		SpatialRes:  sres,
		TemporalRes: tres,
		HasID:       hasID,
		Attrs:       append([]string{}, header[len(csvHeaderPrefix):]...),
	}
	off := cr.InputOffset()
	return d, data[off:], 1 + bytes.Count(data[:off], []byte{'\n'}), nil
}

// csvChunk is a run of whole data lines: the first is physical line line
// of the file and data line first (the index of its tuple slot).
type csvChunk struct {
	data        []byte
	line, first int
}

// parse parses the chunk's lines into their tuple slots of d and their
// value slots in values, and returns the error of its first bad line.
func (c csvChunk) parse(d *Dataset, values []float64) error {
	k, fields := len(d.Attrs), len(csvHeaderPrefix)+len(d.Attrs)
	for i, rest := 0, c.data; len(rest) > 0; i++ {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		// Line endings as encoding/csv strips them: "\n", "\r\n", and a
		// lone "\r" at the end of the file.
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue // blank, as encoding/csv skips it
		}
		if bytes.IndexByte(line, '"') >= 0 {
			return fmt.Errorf("dataset: line %d: %w", c.line+i, ErrQuotedField)
		}
		if n := 1 + bytes.Count(line, []byte{','}); n != fields {
			return fmt.Errorf("dataset: line %d has %d fields, want %d", c.line+i, n, fields)
		}
		ti := c.first + i
		t := &d.Tuples[ti]
		t.Values = values[ti*k : (ti+1)*k : (ti+1)*k]
		if err := parseTuple(line, t, d.Attrs); err != nil {
			return fmt.Errorf("dataset: line %d %w", c.line+i, err)
		}
	}
	return nil
}

// parseTuple parses a data line with the header's number of fields into t.
func parseTuple(line []byte, t *Tuple, attrs []string) (err error) {
	var f [5][]byte
	for i := range f {
		f[i], line, _ = bytes.Cut(line, []byte{','})
	}
	if t.ID, err = strconv.ParseInt(string(f[0]), 10, 64); err != nil {
		return fmt.Errorf("id: %w", err)
	}
	if t.X, err = strconv.ParseFloat(string(f[1]), 64); err != nil {
		return fmt.Errorf("x: %w", err)
	}
	if t.Y, err = strconv.ParseFloat(string(f[2]), 64); err != nil {
		return fmt.Errorf("y: %w", err)
	}
	if t.Region, err = strconv.Atoi(string(f[3])); err != nil {
		return fmt.Errorf("region: %w", err)
	}
	if t.TS, err = strconv.ParseInt(string(f[4]), 10, 64); err != nil {
		return fmt.Errorf("ts: %w", err)
	}
	for i := range t.Values {
		var b []byte
		if b, line, _ = bytes.Cut(line, []byte{','}); len(b) == 0 {
			t.Values[i] = Missing()
		} else if t.Values[i], err = strconv.ParseFloat(string(b), 64); err != nil {
			return fmt.Errorf("attr %s: %w", attrs[i], err)
		}
	}
	return nil
}

// Package queryparse parses the textual form of the paper's relationship
// query (Section 5.3):
//
//	find relationships between D1 and D2 satisfying clause
//
// Concretely:
//
//	find relationships between taxi and weather
//	find relationships between taxi, citibike and all
//	  where score >= 0.6 and strength >= 0.3 and alpha = 0.01
//	    and correction = bh and qvalue <= 0.1
//	  at (hour, city), (day, neighborhood)
//	  using extreme features
//
// "all" (or omitting the second collection) matches every registered data
// set. The clause parts — where / at / using — are optional and may appear
// in any order after the between-clause.
//
// A second "between" introduces a time window restricting the evaluation to
// the steps inside [t1, t2] (timestamps are UTC dates, date-times, or raw
// unix seconds):
//
//	find relationships between taxi and weather between 2012-06-01 and 2012-08-31
package queryparse

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stats"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// Parse converts the textual query into a core.Query.
func Parse(input string) (core.Query, error) {
	var q core.Query
	s := strings.TrimSpace(strings.ToLower(input))
	const prefix = "find relationships between"
	if !strings.HasPrefix(s, prefix) {
		return q, fmt.Errorf("queryparse: query must start with %q", prefix)
	}
	s = strings.TrimPrefix(s, prefix)
	// The prefix must end at a word boundary: "between000 and ..." is not a
	// between-clause.
	if s != "" && s[0] != ' ' && s[0] != '\t' && s[0] != '\n' && s[0] != '\r' {
		return q, fmt.Errorf("queryparse: query must start with %q", prefix)
	}
	s = strings.TrimSpace(s)

	// Split off the optional clause sections. Find the earliest keyword.
	body, sections := splitSections(s)

	sources, targets, err := parseBetween(body)
	if err != nil {
		return q, err
	}
	q.Sources, q.Targets = sources, targets

	for _, sec := range sections {
		switch sec.kind {
		case "where":
			if err := parseWhere(sec.text, &q.Clause); err != nil {
				return q, err
			}
		case "at":
			res, err := parseResolutions(sec.text)
			if err != nil {
				return q, err
			}
			q.Clause.Resolutions = res
		case "using":
			classes, err := parseClasses(sec.text)
			if err != nil {
				return q, err
			}
			q.Clause.Classes = classes
		case "between":
			if err := parseWindow(sec.text, &q.Clause); err != nil {
				return q, err
			}
		}
	}
	return q, nil
}

type section struct {
	kind string
	text string
}

// splitSections cuts the string at the clause keywords "where", "at", and
// "using", returning the leading body and the sections in order.
func splitSections(s string) (string, []section) {
	words := strings.Fields(s)
	body := []string{}
	var sections []section
	var cur *section
	for i := 0; i < len(words); i++ {
		w := words[i]
		if w == "where" || w == "using" || w == "between" || (w == "at" && i > 0) {
			sections = append(sections, section{kind: w})
			cur = &sections[len(sections)-1]
			continue
		}
		if cur == nil {
			body = append(body, w)
		} else {
			cur.text += w + " "
		}
	}
	return strings.Join(body, " "), sections
}

// parseBetween handles "D1 and D2", "D1, D2 and D3", "D1 and all", "all".
func parseBetween(s string) (sources, targets []string, err error) {
	if s == "" {
		return nil, nil, fmt.Errorf("queryparse: missing data set collections")
	}
	if s == "all" || s == "all and all" {
		return nil, nil, nil
	}
	parts := strings.SplitN(s, " and ", 2)
	sources = parseNameList(parts[0])
	if len(sources) == 0 {
		return nil, nil, fmt.Errorf("queryparse: empty source collection in %q", s)
	}
	if len(parts) == 2 {
		t := strings.TrimSpace(parts[1])
		if t != "all" {
			targets = parseNameList(t)
			if len(targets) == 0 {
				return nil, nil, fmt.Errorf("queryparse: empty target collection in %q", s)
			}
		}
	}
	if len(sources) == 1 && sources[0] == "all" {
		sources = nil
	}
	// "and" separates the two collections, so it can never be a data set
	// name: a list containing it ("a and b and c", "a, and") is ambiguous
	// garbage that Format could not render back faithfully.
	for _, name := range append(append([]string{}, sources...), targets...) {
		if name == "and" {
			return nil, nil, fmt.Errorf("queryparse: %q is a reserved word, not a data set name in %q", "and", s)
		}
	}
	return sources, targets, nil
}

func parseNameList(s string) []string {
	var out []string
	for _, p := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' }) {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseWhere handles "score >= 0.6 and strength >= 0.3 and alpha = 0.05
// and permutations = 500 and test = restricted and correction = bh and
// qvalue <= 0.1". It checks the syntax only: what a value may be is the
// clause's to check (core.Clause.Validate), which the engine runs for both
// the grammar and the JSON clause.
func parseWhere(s string, c *core.Clause) error {
	for _, cond := range strings.Split(s, " and ") {
		fields := strings.Fields(cond)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 {
			return fmt.Errorf("queryparse: malformed condition %q", strings.TrimSpace(cond))
		}
		name, op, valStr := fields[0], fields[1], fields[2]
		switch name {
		case "test":
			if op != "=" {
				return fmt.Errorf("queryparse: test needs '=', got %q", op)
			}
			if err := core.CheckTest(valStr); err != nil {
				return err
			}
			continue
		case "correction":
			if op != "=" {
				return fmt.Errorf("queryparse: correction needs '=', got %q", op)
			}
			corr, err := stats.ParseCorrection(valStr)
			if err != nil {
				return fmt.Errorf("queryparse: %w", err)
			}
			c.Correction = corr
			continue
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("queryparse: bad number %q in condition", valStr)
		}
		switch name {
		case "score":
			if op != ">=" && op != ">" {
				return fmt.Errorf("queryparse: score supports '>=' only, got %q", op)
			}
			c.MinScore = val
		case "strength":
			if op != ">=" && op != ">" {
				return fmt.Errorf("queryparse: strength supports '>=' only, got %q", op)
			}
			c.MinStrength = val
		case "alpha":
			if op != "=" {
				return fmt.Errorf("queryparse: alpha needs '=', got %q", op)
			}
			c.Alpha = val
		case "permutations":
			if op != "=" {
				return fmt.Errorf("queryparse: permutations needs '=', got %q", op)
			}
			// Its range is the clause's to check (core.Clause.Validate);
			// the grammar only needs an integer any int holds.
			if val != math.Trunc(val) || math.Abs(val) > math.MaxInt32 {
				return fmt.Errorf("queryparse: permutations must be a 32-bit integer, got %q", valStr)
			}
			c.Permutations = int(val)
		case "qvalue":
			if op != "<=" && op != "<" {
				return fmt.Errorf("queryparse: qvalue supports '<=' only, got %q", op)
			}
			c.MaxQ = val
		default:
			return fmt.Errorf("queryparse: unknown condition %q", name)
		}
	}
	return nil
}

// parseWindow handles the time-window section "t1 and t2": the evaluation
// is restricted to the temporal steps inside [t1, t2].
func parseWindow(s string, c *core.Clause) error {
	parts := strings.SplitN(strings.TrimSpace(s), " and ", 2)
	if len(parts) != 2 {
		return fmt.Errorf("queryparse: time window needs 'between <t1> and <t2>', got %q", strings.TrimSpace(s))
	}
	from, err := parseTime(parts[0])
	if err != nil {
		return err
	}
	to, err := parseTime(parts[1])
	if err != nil {
		return err
	}
	c.Windowed = true
	c.WindowFrom, c.WindowTo = from, to
	return nil
}

// parseTime reads one window bound: a UTC date ("2012-06-01"), a UTC
// date-time ("2012-06-01t15:00:00", trailing "z" optional — Parse lowercases
// its input), or raw unix seconds.
func parseTime(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, nil
	}
	for _, layout := range []string{"2006-01-02", "2006-01-02t15:04:05", "2006-01-02t15:04"} {
		if t, err := time.ParseInLocation(layout, strings.TrimSuffix(s, "z"), time.UTC); err == nil {
			return t.Unix(), nil
		}
	}
	return 0, fmt.Errorf("queryparse: cannot parse timestamp %q (want YYYY-MM-DD, YYYY-MM-DDtHH:MM:SS, or unix seconds)", s)
}

// formatTime renders a window bound canonically: the date form when the
// instant is a UTC midnight, the full date-time form otherwise, raw unix
// seconds for instants outside the date layouts' range. Each form parses
// back to the same instant, keeping Parse∘Format∘Parse a fixed point.
func formatTime(ts int64) string {
	t := time.Unix(ts, 0).UTC()
	if y := t.Year(); y < 1 || y > 9999 {
		return strconv.FormatInt(ts, 10)
	}
	if h, m, s := t.Clock(); h == 0 && m == 0 && s == 0 {
		return t.Format("2006-01-02")
	}
	return t.Format("2006-01-02t15:04:05")
}

// parseResolutions handles "(hour, city), (day, neighborhood)".
func parseResolutions(s string) ([]core.Resolution, error) {
	var out []core.Resolution
	s = strings.TrimSpace(s)
	for s != "" {
		open := strings.IndexByte(s, '(')
		if open < 0 {
			break
		}
		closeIdx := strings.IndexByte(s, ')')
		if closeIdx < open {
			return nil, fmt.Errorf("queryparse: unbalanced parentheses in resolutions")
		}
		inner := s[open+1 : closeIdx]
		s = strings.TrimSpace(s[closeIdx+1:])
		parts := strings.Split(inner, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("queryparse: resolution needs (temporal, spatial), got %q", inner)
		}
		tr, err := temporal.ParseResolution(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, err
		}
		sr, err := spatial.ParseResolution(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, err
		}
		out = append(out, core.Resolution{Spatial: sr, Temporal: tr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("queryparse: 'at' clause without resolutions")
	}
	return out, nil
}

// parseClasses handles "salient features", "extreme features",
// "salient and extreme features".
func parseClasses(s string) ([]feature.Class, error) {
	s = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), "features"))
	var out []feature.Class
	for _, p := range strings.Split(s, " and ") {
		switch strings.TrimSpace(p) {
		case "salient":
			out = append(out, feature.Salient)
		case "extreme":
			out = append(out, feature.Extreme)
		case "":
		default:
			return nil, fmt.Errorf("queryparse: unknown feature class %q", strings.TrimSpace(p))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("queryparse: 'using' clause without classes")
	}
	return out, nil
}

package queryparse

import (
	"reflect"
	"testing"
)

// FuzzParse asserts the parser's two robustness contracts on arbitrary
// input: Parse never panics (any failure is a returned error), and for
// every input the grammar accepts and whose clause the engine accepts
// (core.Clause.Validate), Parse∘Format∘Parse is a fixed point — the parsed
// query formats to a string that parses back to exactly the same query.
// The seed corpus is the representable-query matrix from the round-trip
// test (strided to ~5k entries) plus the known error shapes, so the fuzzer
// starts from every grammar production.
func FuzzParse(f *testing.F) {
	for i, q := range matrixQueries() {
		if i%9 == 0 { // ~5k of the full matrix; mutation covers the rest
			f.Add(Format(q))
		}
	}
	for _, s := range []string{
		"",
		"find relationships between all",
		"find relationships between taxi and weather between 2012-06-01 and 2012-08-31",
		"find relationships between all between 2012-06-01t06:30:00 and 2012-06-01t18:00:00z",
		"find relationships between a and b between 1338508800 and 1346371200 where score >= 0.5",
		"find relationships between a and b between 2012-08-31 and 2012-06-01",
		"find relationships between a and b between 2012-06-01",
		"find relationships between a and b between now and then",
		"find relationships between taxi, citibike and weather, gas_prices",
		"find relationships between a and b where score >= 0.6 and strength > 0.3",
		"find relationships between a and b where alpha = 0.01 and permutations = 500",
		"find relationships between a and b where test = block and correction = by and qvalue <= 0.05",
		"find relationships between a and b at (hour, city), (day, neighborhood) using extreme features",
		"find relationships between a and b where score = ",
		"find relationships between a and b at (fortnight, city)",
		"find relationships between a and b using magic features",
		"find relationships between and and and",
		"FIND RELATIONSHIPS BETWEEN Taxi AND Weather",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q1, err := Parse(input)
		if err != nil || q1.Clause.Validate() != nil {
			return // rejected inputs only need to not panic
		}
		text := Format(q1)
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its formatted form %q does not parse: %v", input, text, err)
		}
		if !reflect.DeepEqual(q1, q2) {
			t.Fatalf("Parse∘Format∘Parse is not a fixed point for %q:\nformatted %q\n first %+v\nsecond %+v",
				input, text, q1, q2)
		}
	})
}

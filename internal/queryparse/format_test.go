package queryparse

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/stats"
)

// Format renders a query back into the textual form Parse accepts, with
// clause sections in canonical order (where, at, using). For every query
// expressible in the grammar — lower-case data set names, the clause
// fields the where-grammar covers — Parse(Format(q)) reproduces q exactly
// (see the round-trip property test). Clause fields outside the grammar
// (SkipSignificance, Exhaustive) are not rendered. No binary prints a
// query, so Format lives here, as the round-trip oracle of FuzzParse and
// the property tests.
func Format(q core.Query) string {
	var b strings.Builder
	b.WriteString("find relationships between ")
	b.WriteString(formatNames(q.Sources))
	b.WriteString(" and ")
	b.WriteString(formatNames(q.Targets))
	if q.Clause.Windowed {
		b.WriteString(" between ")
		b.WriteString(formatTime(q.Clause.WindowFrom))
		b.WriteString(" and ")
		b.WriteString(formatTime(q.Clause.WindowTo))
	}

	var conds []string
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if q.Clause.MinScore != 0 {
		conds = append(conds, "score >= "+num(q.Clause.MinScore))
	}
	if q.Clause.MinStrength != 0 {
		conds = append(conds, "strength >= "+num(q.Clause.MinStrength))
	}
	if q.Clause.Alpha != 0 {
		conds = append(conds, "alpha = "+num(q.Clause.Alpha))
	}
	if q.Clause.Permutations != 0 {
		conds = append(conds, "permutations = "+strconv.Itoa(q.Clause.Permutations))
	}
	if q.Clause.Correction != stats.None {
		conds = append(conds, "correction = "+q.Clause.Correction.String())
	}
	if q.Clause.MaxQ != 0 {
		conds = append(conds, "qvalue <= "+num(q.Clause.MaxQ))
	}
	if len(conds) > 0 {
		b.WriteString(" where ")
		b.WriteString(strings.Join(conds, " and "))
	}
	if len(q.Clause.Resolutions) > 0 {
		parts := make([]string, len(q.Clause.Resolutions))
		for i, r := range q.Clause.Resolutions {
			parts[i] = fmt.Sprintf("(%s, %s)", r.Temporal, r.Spatial)
		}
		b.WriteString(" at ")
		b.WriteString(strings.Join(parts, ", "))
	}
	if len(q.Clause.Classes) > 0 {
		names := make([]string, len(q.Clause.Classes))
		for i, c := range q.Clause.Classes {
			names[i] = c.String()
		}
		b.WriteString(" using ")
		b.WriteString(strings.Join(names, " and "))
		b.WriteString(" features")
	}
	return b.String()
}

// formatNames renders a data set collection; nil means every data set.
func formatNames(names []string) string {
	if len(names) == 0 {
		return "all"
	}
	return strings.Join(names, ", ")
}

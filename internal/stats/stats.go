// Package stats implements multiple-hypothesis corrections for the
// relationship discovery workload. The framework tests one hypothesis per
// candidate function pair, and a corpus-wide query or graph build tests
// thousands of them at once — exactly the regime where a per-pair
// alpha = 0.05 floods the result with false discoveries. The step-up
// procedures here control the false discovery rate (FDR) across the whole
// tested family instead:
//
//   - Benjamini-Hochberg (BH) controls the FDR at level alpha when the
//     test statistics are independent or positively dependent;
//   - Benjamini-Yekutieli (BY) controls it under arbitrary dependence, at
//     the price of an extra harmonic-number factor of conservatism.
//
// Both are exposed as adjusted p-values ("q-values"): Adjust maps a vector
// of raw p-values to q-values in the same order, and rejecting exactly the
// hypotheses with q <= alpha reproduces the step-up decision rule. The
// q-value of a hypothesis depends on the entire family, so callers must
// adjust over every tested pair — not just the interesting ones — and must
// re-adjust when the family grows (the graph layer recomputes q-values from
// its cached per-pair p-values on every incremental rebuild).
//
// Adjust is deterministic and order-independent: permuting the input yields
// the correspondingly permuted output, and tied p-values always receive
// identical q-values. This is what makes incrementally maintained q-values
// byte-identical to a from-scratch computation.
package stats

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Correction selects a multiple-hypothesis correction procedure.
type Correction int

const (
	// None applies no correction: every q-value equals its raw p-value.
	None Correction = iota
	// BH is the Benjamini-Hochberg step-up procedure (FDR control under
	// independence or positive dependence).
	BH
	// BY is the Benjamini-Yekutieli step-up procedure (FDR control under
	// arbitrary dependence).
	BY
)

// String implements fmt.Stringer; the names round-trip through
// ParseCorrection.
func (c Correction) String() string {
	switch c {
	case None:
		return "none"
	case BH:
		return "bh"
	case BY:
		return "by"
	default:
		return "stats.Correction(?)"
	}
}

// ParseCorrection parses a correction name. The empty string and "none"
// select None; "bh" and "by" (case-insensitive) select the step-up
// procedures.
func ParseCorrection(s string) (Correction, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
		return None, nil
	case "bh", "benjamini-hochberg":
		return BH, nil
	case "by", "benjamini-yekutieli":
		return BY, nil
	default:
		return None, fmt.Errorf("stats: unknown correction %q (want none, bh, or by)", s)
	}
}

// Adjust maps raw p-values to adjusted p-values (q-values) under the given
// correction, preserving input order. None copies the input. For BH the
// q-value of the hypothesis with the i-th smallest p-value is
//
//	q_(i) = min_{j >= i} min(1, m * p_(j) / j)
//
// with m = len(ps); BY multiplies by the harmonic number
// H_m = sum_{k=1..m} 1/k. Rejecting exactly {i : q_i <= alpha} reproduces
// the step-up rule "reject the k smallest p-values, k = max{i : p_(i) <=
// (i/m) * alpha / factor}". q-values are clamped to [p, 1]; tied p-values
// receive identical q-values, so the result is independent of input order.
func Adjust(c Correction, ps []float64) []float64 {
	out := make([]float64, len(ps))
	if c == None {
		copy(out, ps)
		return out
	}
	m := len(ps)
	if m == 0 {
		return out
	}
	factor := 1.0
	if c == BY {
		factor = 0
		for k := 1; k <= m; k++ {
			factor += 1 / float64(k)
		}
	}
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	// The order inside a tie group is left to the sort: stepping down from
	// the largest p-value keeping a running minimum assigns every tie group
	// the smallest candidate value in it, its last rank's, which is what
	// makes q-values a function of the p-value multiset.
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(ps[a], ps[b]) })
	runMin := 1.0
	for r := m - 1; r >= 0; r-- {
		q := float64(m) * factor * ps[idx[r]] / float64(r+1)
		if q < runMin {
			runMin = q
		}
		out[idx[r]] = runMin
	}
	return out
}

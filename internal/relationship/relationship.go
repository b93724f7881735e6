// Package relationship implements step 3 of the Data Polygamy pipeline —
// Relationship Evaluation (Sections 2.2 and 2.3 of the paper): given the
// feature sets of two scalar functions on the same domain graph, it
// computes the feature relations, the relationship score tau, and the
// relationship strength rho (F1).
//
// Measure is the one kernel. It makes a single pass over the words both
// feature unions Σ1 and Σ2 occupy, read off the unions' word-occupancy
// bitmaps: a word either union leaves empty holds no feature relation and
// is never read; every other word forms Σ1 ∩ Σ2 from the four sign words
// and adds its popcount to |Σ| and its four sign intersections to #p and
// #n. |Σ1| and |Σ2| come from the caller, which holds them already (the
// index keeps them per entry), so nothing is counted twice.
package relationship

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
)

// Measures summarises the relationship between two feature sets.
type Measures struct {
	// Tau is the relationship score (#p - #n) / |Sigma| in [-1, 1];
	// +1 means always positively related, -1 always negatively related.
	Tau float64
	// Rho is the relationship strength: the F1 score of the feature sets
	// viewed as binary classifiers of each other, in [0, 1].
	Rho float64
	// NumPositive (#p) counts spatio-temporal points where the functions
	// are positively related (both positive or both negative features).
	NumPositive int
	// NumNegative (#n) counts points where they are negatively related
	// (one positive, one negative).
	NumNegative int
	// Sigma1 and Sigma2 are |Sigma_1| and |Sigma_2|, the feature counts of
	// each function; SigmaBoth is |Sigma| = |Sigma_1 ∩ Sigma_2|.
	Sigma1, Sigma2, SigmaBoth int
	// Precision = |Sigma|/|Sigma_1|, Recall = |Sigma|/|Sigma_2|.
	Precision, Recall float64
}

// Evaluate computes the relationship measures between the feature sets of
// two functions defined on the same domain graph, deriving their unions'
// word-occupancy bitmaps and sizes. It panics if the sets have different
// vertex counts (callers align resolutions first).
func Evaluate(a, b *feature.Set) Measures {
	allA, allB := a.All(), b.All()
	return Measure(a, b, allA.Occupied(), allB.Occupied(), allA.Count(), allB.Count())
}

// Measure computes the relationship measures of a and b in one pass over
// the words both feature unions Σ1 and Σ2 occupy, as their word-occupancy
// bitmaps occA and occB mark them (bitvec.Occupied; a bitmap may mark zero
// words too, never miss a non-zero one). Each visited union word is formed
// from the sign words, (pos | neg). The caller supplies the unions'
// popcounts as sizeA = |Σ1| and sizeB = |Σ2| (used as given). It panics if
// the four sign vectors do not all have the same length, or a bitmap does
// not have one bit per word of them.
func Measure(a, b *feature.Set, occA, occB *bitvec.Vector, sizeA, sizeB int) Measures {
	n := a.Positive.Len()
	for _, v := range [...]*bitvec.Vector{a.Negative, b.Positive, b.Negative} {
		if v.Len() != n {
			panic(fmt.Sprintf("relationship: feature vectors over %d vs %d vertices", n, v.Len()))
		}
	}
	if nw := bitvec.NumWords(n); occA.Len() != nw || occB.Len() != nw {
		panic(fmt.Sprintf("relationship: occupancy bitmaps of %d and %d bits for %d words", occA.Len(), occB.Len(), nw))
	}
	ap := a.Positive.Words()
	an := a.Negative.Words()[:len(ap)]
	bp, bn := b.Positive.Words()[:len(ap)], b.Negative.Words()[:len(ap)]
	var m Measures
	for i := range bitvec.SharedWords(occA, occB) {
		w := (ap[i] | an[i]) & (bp[i] | bn[i])
		if w == 0 {
			continue
		}
		m.SigmaBoth += bits.OnesCount64(w)
		m.NumPositive += bits.OnesCount64(ap[i]&bp[i]) + bits.OnesCount64(an[i]&bn[i])
		m.NumNegative += bits.OnesCount64(ap[i]&bn[i]) + bits.OnesCount64(an[i]&bp[i])
	}
	m.Sigma1, m.Sigma2 = sizeA, sizeB
	if m.SigmaBoth > 0 {
		m.Tau = float64(m.NumPositive-m.NumNegative) / float64(m.SigmaBoth)
	}
	if m.Sigma1 > 0 {
		m.Precision = float64(m.SigmaBoth) / float64(m.Sigma1)
	}
	if m.Sigma2 > 0 {
		m.Recall = float64(m.SigmaBoth) / float64(m.Sigma2)
	}
	if m.Precision+m.Recall > 0 {
		m.Rho = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// Related reports whether the two functions share any feature relations.
func (m Measures) Related() bool { return m.SigmaBoth > 0 }

// String renders the measures compactly, e.g. "tau=-0.62 rho=0.75".
func (m Measures) String() string {
	return fmt.Sprintf("tau=%.2f rho=%.2f (#p=%d #n=%d |Sigma|=%d)",
		m.Tau, m.Rho, m.NumPositive, m.NumNegative, m.SigmaBoth)
}

// Valid reports whether the measures are within their mathematical ranges
// (used by property tests and sanity checks).
func (m Measures) Valid() bool {
	return m.Tau >= -1-1e-12 && m.Tau <= 1+1e-12 &&
		m.Rho >= 0 && m.Rho <= 1+1e-12 &&
		!math.IsNaN(m.Tau) && !math.IsNaN(m.Rho)
}

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/urbandata/datapolygamy/internal/spatial"
)

// The golden graph and query hashes pin what the engine answers on the
// golden corpus (goldenCorpus): the DOT and JSON export of the default
// relationship graph, and the full-precision results of one pairwise and
// one all-pairs query. A change that claims "same behaviour" must leave
// them alone, and one that changes answers on purpose must say so and
// regenerate them (the failure message prints the new value).
//
// The DOT, JSON and all-pairs hashes were regenerated once, when toroidal
// shifts moved from each test's own stream to one sequence per spatial
// resolution (montecarlo.ShiftPool): multi-region p-values changed on
// purpose, 13,211 → 13,180 graph edges and 13,234 → 13,192 all-pairs rows.
// The pairwise hash (taxi ~ weather meets at city resolution only) did not
// move, and neither did goldenOneRegionHash, which was added on the commit
// before that change: it covers only the graph edges (12,380) and query
// rows at a one-region spatial resolution, whose tests draw no shift, so
// no change to the shift sequence may move it.
//
// The pairwise, all-pairs and one-region hashes were regenerated once more,
// with no answer changing, when query rows switched from %+v to goldenRow's
// explicit field list: Relationship lost its Measures field, which a family
// read back from a snapshot cannot rebuild. The new values were taken on the
// commit before that deletion.
//
// goldenMultiRegionHash covers the edges and query rows at every other
// spatial resolution; it was added on the commit before one-region
// Restricted tests became exact. That change regenerated the other five
// hashes once: a one-region test now enumerates its S-1 rotations (p is
// exact, at least 1/S, where 1,000 draws could report 1/1001 at any S), and
// a tuple whose test cannot reach alpha (1/S > alpha: city x month and city
// x week) is left out of the family. Graph edges went 13,180 → 3,268, the
// one-region ones 12,380 → 2,468, and all-pairs rows 13,192 → 3,253; the
// 800 multi-region edges and goldenMultiRegionHash did not move.
//
// All six were regenerated once more when the p-value became two-sided (a
// randomization counts when |tau*| >= |tau|, where it counted only in the
// observed score's direction, a level-2*alpha test). p-values changed on
// purpose: graph edges went 3,268 → 1,617, the one-region ones 2,468 →
// 1,348, and all-pairs rows 3,253 → 1,630. The multi-region edges, often a
// single overlapping feature whose opposite-sign randomizations never
// counted before, fell by two thirds, 800 → 269.
//
// All six were restated once more when the golden corpus stopped indexing
// each function's gradient (the grad_ entries left the index), with no
// answer of a remaining function changing. The new values were taken on
// the commit before that deletion with gradients off; there, the edges and
// query rows of the gradients-on build without those naming a grad_
// function were the same rows, byte for byte. Graph edges went 1,617 →
// 333 (one-region 1,348 → 302, multi-region 269 → 31) and all-pairs rows
// 1,630 → 334.
const (
	goldenGraphDOTHash  = "b6b033309cac2c81f692e7b0b89688bea10067733af6ec38e543e2c7e1fff645"
	goldenGraphJSONHash = "e8808f198c51952534169aaf67ca3047fee73234c83aa6fe26cd45d3f6d6906f"
	goldenPairwiseHash  = "68c4cd28f6c6c5946aa4b3af3daddb9457ba3b1af72fe324bfcb7eccc7d85d9f"
	goldenAllPairsHash  = "086a445d8958c9efa85b7100e9a2885c8f8a8c47ef3fe5ccc3687c1f6eb1c5d4"
	goldenOneRegionHash = "595c15f9eeafdad69bce0da1ef0a215b7682cfb8b91a0e60304bac7d0fd9c82c"

	goldenMultiRegionHash = "4682e907a579e6d1ffd560adb5ed9707f1ee0d7fa0baf7fc1a90ab88229cb877"
)

// goldenAnswers hashes everything TestGoldenGraph pins about one framework:
// its published graph's two exports and the two fixed queries, and the
// one-region and multi-region parts of the edges and rows.
func goldenAnswers(t *testing.T, f *Framework) [6]string {
	t.Helper()
	g, ok := f.RelGraph()
	if !ok || g.NumEdges() == 0 {
		t.Fatal("framework has no relationship graph, or an empty one")
	}
	var js bytes.Buffer
	if err := g.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	// oneRegion collects the graph edges and query rows at a spatial
	// resolution with a single region, multiRegion those at every other, in
	// the order they were produced.
	var oneRegion, multiRegion bytes.Buffer
	part := func(sr spatial.Resolution) *bytes.Buffer {
		if f.opts.City.NumRegions(sr) == 1 {
			return &oneRegion
		}
		return &multiRegion
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(part(e.SRes), "%+v\n", e)
	}
	query := func(q Query) string {
		rels, _, err := f.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rels) == 0 {
			t.Fatalf("golden query %s returned nothing", q.Signature())
		}
		var out bytes.Buffer
		for _, r := range rels {
			out.WriteString(goldenRow(r))
			part(r.Res.Spatial).WriteString(goldenRow(r))
		}
		return sum(out.Bytes())
	}
	pairwise := query(Query{Sources: []string{"taxi"}, Targets: []string{"weather"}})
	allPairs := query(Query{Clause: Clause{Permutations: 200}})
	if oneRegion.Len() == 0 || multiRegion.Len() == 0 {
		t.Fatal("golden corpus lacks one-region or multi-region edges and query rows")
	}
	return [6]string{sum(graphDOT(t, f)), sum(js.Bytes()), pairwise, allPairs, sum(oneRegion.Bytes()), sum(multiRegion.Bytes())}
}

// goldenRow formats one query row field by field, every float at full
// precision.
func goldenRow(r Relationship) string {
	return fmt.Sprintf("{Function1:%s Function2:%s Dataset1:%s Dataset2:%s Spec1:%s Spec2:%s Res:%v Class:%v Score:%v Strength:%v PValue:%v QValue:%v Significant:%v}\n",
		r.Function1, r.Function2, r.Dataset1, r.Dataset2, r.Spec1, r.Spec2,
		r.Res, r.Class, r.Score, r.Strength, r.PValue, r.QValue, r.Significant)
}

func TestGoldenGraph(t *testing.T) {
	want := [6]string{goldenGraphDOTHash, goldenGraphJSONHash, goldenPairwiseHash, goldenAllPairsHash,
		goldenOneRegionHash, goldenMultiRegionHash}
	names := [6]string{"graph DOT", "graph JSON", "pairwise query", "all-pairs query", "one-region rows", "multi-region rows"}
	check := func(stage string, f *Framework) {
		t.Helper()
		got := goldenAnswers(t, f)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: %s hash = %s, want %s", stage, names[i], got[i], want[i])
			}
		}
	}

	f, opts := goldenFramework(t, 2, false)
	if _, err := f.BuildGraph(Clause{}); err != nil {
		t.Fatal(err)
	}
	check("built", f)

	// Save → Open: the warm-started framework answers from the snapshot's
	// index and families alone.
	path := filepath.Join(t.TempDir(), "golden.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	check("save/open", opened)

	// An index opened from the snapshot alone, with no raw data set,
	// recomputes the same graph: planning reads resolutions off the index.
	rebuilt, err := Open(path, OpenOptions{Options: opts.Options})
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Close()
	rebuilt.mu.Lock()
	rebuilt.resetResults() // every pair is recomputed, none comes from the opened cache
	rebuilt.mu.Unlock()
	if st, err := rebuilt.BuildGraph(Clause{}); err != nil || st.PairsReused != 0 {
		t.Fatalf("rebuild over the snapshot-only index: %+v, %v", st, err)
	}
	check("snapshot-only rebuild", rebuilt)
}

func graphDOT(t *testing.T, f *Framework) []byte {
	t.Helper()
	g, ok := f.RelGraph()
	if !ok {
		t.Fatal("no graph published")
	}
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

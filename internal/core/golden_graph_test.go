package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"testing"
)

// The golden graph and query hashes pin what the engine answers on the
// golden corpus (goldenCorpus): the DOT and JSON export of the default
// relationship graph, and the full-precision results of one pairwise and
// one all-pairs query. They were generated at the commit before the gob
// codecs were deleted; a change that claims "same behaviour" must leave
// them alone, and one that changes answers on purpose must say so and
// regenerate them (the failure message prints the new value).
const (
	goldenGraphDOTHash  = "0d89a537e4991809977446c48df43f97323f7a23c47ceb076c45114033e06edb"
	goldenGraphJSONHash = "0d8f2fb0fd2041bdde74d56da8b0371c9b7f2647e2416c224cbf175ab3eda9a0"
	goldenPairwiseHash  = "b6d3252b32347d939c9300ae094ead3578cf5af65fab1e432b7a7802c974043c"
	goldenAllPairsHash  = "fd233c619b82cd49534a9f83824203695df984f68b3a89eae80063e48a3e6e90"
)

// goldenAnswers hashes everything TestGoldenGraph pins about one framework:
// its published graph's two exports and the two fixed queries.
func goldenAnswers(t *testing.T, f *Framework) [4]string {
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
			fmt.Fprintf(&out, "%+v\n", r)
		}
		return sum(out.Bytes())
	}
	return [4]string{
		sum(graphDOT(t, f)),
		sum(js.Bytes()),
		query(Query{Sources: []string{"taxi"}, Targets: []string{"weather"}}),
		query(Query{Clause: Clause{Permutations: 200}}),
	}
}

func TestGoldenGraph(t *testing.T) {
	want := [4]string{goldenGraphDOTHash, goldenGraphJSONHash, goldenPairwiseHash, goldenAllPairsHash}
	names := [4]string{"graph DOT", "graph JSON", "pairwise query", "all-pairs query"}
	check := func(stage string, f *Framework) {
		t.Helper()
		got := goldenAnswers(t, f)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: %s hash = %s, want %s", stage, names[i], got[i], want[i])
			}
		}
	}

	f, opts := goldenFramework(t)
	if _, err := f.BuildGraph(Clause{}); err != nil {
		t.Fatal(err)
	}
	check("built", f)

	// Save → Open: the warm-started framework answers from the snapshot's
	// index and candidate cache alone.
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

	// Three shards computed over a warm-opened index and merged back.
	merged, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	merged.mu.Lock()
	merged.resetGraph() // the shards compute their pairs, none come from the opened cache
	merged.mu.Unlock()
	var shards [][]byte
	for s := 0; s < 3; s++ {
		payload, err := merged.BuildGraphShard(Clause{}, s, 3)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, payload)
	}
	if _, err := merged.MergeGraphShards(Clause{}, shards); err != nil {
		t.Fatal(err)
	}
	check("3-shard merge", merged)
}

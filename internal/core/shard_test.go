package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/stats"
	"github.com/urbandata/datapolygamy/internal/store"
)

// shardCorpus builds a four-data-set corpus (6 unordered pairs, so 2- and
// 4-way partitions are non-trivial) identical across calls.
func shardCorpus(t testing.TB) *Framework {
	t.Helper()
	f, err := New(Options{City: testCity(t), Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wind, trips := plantedPair(30, randomHours(31, 60), nil)
	wind2, trips2 := plantedPair(77, randomHours(78, 40), randomHours(79, 20))
	wind2.Name, trips2.Name = "gusts", "rides"
	for _, d := range []*dataset.Dataset{wind, trips, wind2, trips2} {
		if err := f.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return f
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

// TestShardedBuildGraphEquivalence is the sharded-build guarantee: shard
// payloads computed on independent frameworks (as replicas would) and
// merged on another are byte-identical — edges, p/q-values, DOT export —
// to a local BuildGraph, across 1/2/4-way partitions and repeated runs.
func TestShardedBuildGraphEquivalence(t *testing.T) {
	clause := Clause{Permutations: 120, Correction: stats.BH}

	local := shardCorpus(t)
	if _, err := local.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	wantGraph, _ := local.RelGraph()
	wantDOT := graphDOT(t, local)

	for _, of := range []int{1, 2, 4} {
		for run := 0; run < 2; run++ {
			shards := make([][]byte, of)
			for s := 0; s < of; s++ {
				// Each shard on its own framework: nothing shared with the
				// merger or the other shards except the deterministic seeds.
				worker := shardCorpus(t)
				payload, err := worker.BuildGraphShard(clause, s, of)
				if err != nil {
					t.Fatalf("of=%d shard=%d: %v", of, s, err)
				}
				shards[s] = payload
			}
			merger := shardCorpus(t)
			st, err := merger.MergeGraphShards(clause, shards)
			if err != nil {
				t.Fatalf("of=%d merge: %v", of, err)
			}
			if st.Pairs != 6 {
				t.Fatalf("of=%d: merged %d pairs, want 6", of, st.Pairs)
			}
			got, ok := merger.RelGraph()
			if !ok {
				t.Fatalf("of=%d: merge published no graph", of)
			}
			if !got.Equal(wantGraph) {
				t.Fatalf("of=%d run=%d: merged graph differs from local build", of, run)
			}
			if gotDOT := graphDOT(t, merger); !bytes.Equal(gotDOT, wantDOT) {
				t.Fatalf("of=%d run=%d: DOT export differs from local build", of, run)
			}
			if st.Edges != wantGraph.NumEdges() {
				t.Fatalf("of=%d: merged %d edges, want %d", of, st.Edges, wantGraph.NumEdges())
			}
		}
	}
}

// TestShardedBuildGraphReusesWarmCache pins the replica fast path: a
// framework that already holds the candidate cache under the same clause
// (e.g. warm-loaded from the leader's snapshot) serves its shard without
// re-evaluating any pair.
func TestShardedBuildGraphReusesWarmCache(t *testing.T) {
	clause := Clause{Permutations: 120}
	f := shardCorpus(t)
	if _, err := f.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	first, err := f.BuildGraphShard(clause, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := f.BuildGraphShard(clause, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("repeated shard computation is not deterministic")
	}
}

// TestMergeGraphShardsRejectsBadPartitions walks the validation matrix: a
// merge must refuse anything that is not a complete, consistent partition
// of this corpus's pair space under this clause.
func TestMergeGraphShardsRejectsBadPartitions(t *testing.T) {
	clause := Clause{Permutations: 120}
	f := shardCorpus(t)
	s0, err := f.BuildGraphShard(clause, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := f.BuildGraphShard(clause, 1, 2)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		clause Clause
		shards [][]byte
	}{
		{"missing shard", clause, [][]byte{s0}},
		{"duplicate shard", clause, [][]byte{s0, s0}},
		{"wrong clause", Clause{Permutations: 240}, [][]byte{s0, s1}},
		{"garbage payload", clause, [][]byte{s0, []byte("junk")}},
		{"no shards", clause, nil},
	}
	for _, tc := range cases {
		if _, err := f.MergeGraphShards(tc.clause, tc.shards); err == nil {
			t.Errorf("%s: merge unexpectedly succeeded", tc.name)
		}
	}

	// A valid merge still works after all those rejections.
	if _, err := f.MergeGraphShards(clause, [][]byte{s1, s0}); err != nil {
		t.Fatalf("valid merge (order-independent): %v", err)
	}

	// A shard computed before a corpus change must be refused after it.
	extra, _ := plantedPair(99, randomHours(98, 30), nil)
	extra.Name = "late"
	// Keep the time range identical so only the dataset list changes.
	if err := f.AddDataset(extra.Filter("late", func(dataset.Tuple) bool { return true })); err != nil {
		t.Fatal(err)
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.MergeGraphShards(clause, [][]byte{s0, s1}); err == nil {
		t.Error("merge over a grown corpus unexpectedly succeeded")
	}
}

// TestMergeGraphShardsRejectsDamagedPayloads: a shard payload crosses the
// network, so the merge treats it like a snapshot section — truncation, a
// flipped structural word or a foreign magic fails with an error wrapping
// store.ErrCorrupt, never a panic, and the published graph stays as it was.
func TestMergeGraphShardsRejectsDamagedPayloads(t *testing.T) {
	clause := Clause{Permutations: 120}
	f := shardCorpus(t)
	if _, err := f.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	published := graphDOT(t, f)
	s0, err := f.BuildGraphShard(clause, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := f.BuildGraphShard(clause, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, graph := seedFlatPayloads(t)

	// Word offsets in a shard payload: magic 0, generation 8, then the
	// signature's length at 16.
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"truncated to the magic", s1[:8]},
		{"truncated mid-header", s1[:40]},
		{"truncated mid-table", s1[:len(s1)/2/8*8]},
		{"last word missing", s1[:len(s1)-8]},
		{"trailing bytes", append(append([]byte(nil), s1...), make([]byte, 8)...)},
		{"generation word flipped", flipWord(s1, 8)},
		{"signature length flipped", flipWord(s1, 16)},
		{"another generation's magic", append([]byte("DPSHFLT\x05"), s1[8:]...)},
		{"graph section instead of a shard", graph},
		{"not flat at all", []byte("junk")},
	}
	for _, tc := range cases {
		_, err := f.MergeGraphShards(clause, [][]byte{s0, tc.payload})
		if !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("%s: err = %v, does not wrap store.ErrCorrupt", tc.name, err)
		}
		if got := graphDOT(t, f); !bytes.Equal(got, published) {
			t.Fatalf("%s: refused merge changed the published graph", tc.name)
		}
	}
	// Every single-bit flip either fails cleanly or yields a payload that
	// still parses (a flipped score bit is not structural); none may panic.
	for bit := 0; bit < 8*len(s1); bit += 37 {
		bad := append([]byte(nil), s1...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := parseFlatShard(bad); err != nil && !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("bit %d: non-ErrCorrupt failure: %v", bit, err)
		}
	}
}

// FuzzParseFlatShard: the shard parser must never panic and must fail only
// with errors wrapping store.ErrCorrupt on arbitrary input.
func FuzzParseFlatShard(f *testing.F) {
	fw := shardCorpus(f)
	for s := 0; s < 2; s++ {
		payload, err := fw.BuildGraphShard(Clause{Permutations: 40}, s, 2)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	f.Add([]byte("DPSHFLT\x04"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := parseFlatShard(data); err != nil && !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("non-ErrCorrupt failure: %v", err)
		}
	})
}

// TestPairShardPartitions pins that the shard hash is a total, stable,
// order-insensitive partition.
func TestPairShardPartitions(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	for _, of := range []int{1, 2, 3, 8} {
		for i, a := range names {
			for _, b := range names[i+1:] {
				s := PairShard(a, b, of)
				if s < 0 || s >= of {
					t.Fatalf("PairShard(%q,%q,%d) = %d out of range", a, b, of, s)
				}
				if s != PairShard(b, a, of) {
					t.Fatalf("PairShard not symmetric for (%q,%q)", a, b)
				}
			}
		}
	}
	if PairShard("x", "y", 0) != 0 {
		t.Fatal("degenerate partition width should map to shard 0")
	}
}

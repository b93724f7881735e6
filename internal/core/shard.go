package core

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/store"
)

// This file is the sharded form of BuildGraph: the all-pairs Monte Carlo
// fan-out — the most expensive computation in the system — partitioned
// across replicas. The pair space is split by a deterministic hash of the
// unordered data set pair (PairShard), each shard computes its pairs'
// tested candidate families with the same per-pair seeds and the same
// per-resolution shift sequences a local build would use (both derive from
// Options.Seed and an identity alone, never from enumeration order or the
// process), and the leader merges the per-pair caches and
// assembles the published graph. Because every per-pair candidate list is
// independent of which process computed it, the merged graph — edges,
// p-values, corpus-wide q-values, and DOT export — is byte-identical to a
// single-process BuildGraph under the same clause (asserted by
// TestShardedBuildGraphEquivalence).
//
// A shard payload is a flat section like the snapshot's (persist_flat.go):
// a small header — its own magic, the origin every candidate payload states
// (clause signature, seed, corpus time range) and its (shard, of)
// coordinates — followed by the same pair table the graph section holds.
// MergeGraphShards refuses damaged payloads (errors wrapping
// store.ErrCorrupt) and payloads from another clause, another corpus, an
// inconsistent partition, or an incomplete one — a merged graph either
// covers exactly the current corpus's pair space or is not published.

// PairShard maps an unordered data set pair to a shard index in [0, of).
// The hash depends only on the canonically ordered names, so every process
// partitions the pair space identically.
func PairShard(a, b string, of int) int {
	if of <= 1 {
		return 0
	}
	if b < a {
		a, b = b, a
	}
	h := fnv.New64a()
	h.Write([]byte(a))
	h.Write([]byte{0})
	h.Write([]byte(b))
	return int(h.Sum64() % uint64(of))
}

// flatShardSnap is a parsed shard payload: the tested candidate families
// of every pair the shard owns.
type flatShardSnap struct {
	flatOrigin
	shard, of int
	pairs     []flatPair
}

// parseFlatShard decodes a shard payload with no framework access; every
// failure wraps store.ErrCorrupt.
func parseFlatShard(data []byte) (flatShardSnap, error) {
	var snap flatShardSnap
	r, err := openFlat(data, flatShardMagic, "shard payload")
	if err != nil {
		return snap, err
	}
	snap.flatOrigin = readFlatOrigin(r)
	snap.shard = int(r.I64())
	snap.of = int(r.I64())
	snap.pairs = readFlatPairs(r)
	return snap, r.Done()
}

// BuildGraphShard computes the tested candidate families for the unordered
// data set pairs assigned to shard (of the given partition width) under the
// clause, and returns them as a self-describing payload for
// MergeGraphShards. Per-pair Monte Carlo seeds are derived from pair
// identity, so the candidates are byte-identical to what a local BuildGraph
// would record for the same pairs. Pairs already present in this
// framework's candidate cache under the same clause signature (e.g. on a
// replica whose graph was warm-loaded from the leader's snapshot) are
// served from the cache without re-evaluation, and freshly computed pairs
// are cached in turn.
//
// Like BuildGraph, the computation holds the state lock shared — queries
// keep flowing — and serializes on the builder mutex. The published graph
// is not touched: computing a shard is a pure producer step.
func (f *Framework) BuildGraphShard(clause Clause, shard, of int) ([]byte, error) {
	if of < 1 {
		return nil, fmt.Errorf("core: shard partition width %d, want >= 1", of)
	}
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("core: shard %d out of range [0,%d)", shard, of)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if !f.indexedLocked() {
		return nil, fmt.Errorf("core: BuildIndex must run before BuildGraphShard")
	}
	f.graphMu.Lock()
	defer f.graphMu.Unlock()
	sig := graphSignature(clause)
	if f.graphSig != sig || f.graphCands == nil {
		f.graphCands = make(map[graphPair][]relgraph.Edge)
		f.graphSig = sig
	}

	// Enumerate this shard's pairs; plan and evaluate the ones the cache
	// does not already hold.
	var owned, missing []graphPair
	for i, a := range f.order {
		for _, b := range f.order[i+1:] {
			if PairShard(a, b, of) != shard {
				continue
			}
			key := makeGraphPair(a, b)
			owned = append(owned, key)
			if _, ok := f.graphCands[key]; !ok {
				missing = append(missing, key)
			}
		}
	}
	if err := f.evaluatePairsLocked(missing, clause, &GraphStats{}); err != nil {
		return nil, err
	}

	w := store.NewSlabWriter(4096)
	f.writeFlatOriginLocked(w, flatShardMagic, sig)
	w.I64(int64(shard))
	w.I64(int64(of))
	writeFlatPairs(w, owned, f.graphCands)
	mGraphShardsComputed.Inc()
	return w.Finish(), nil
}

// MergeGraphShards merges shard payloads produced by BuildGraphShard under
// the same clause into this framework's candidate cache and publishes the
// assembled graph. The shards must form a complete, consistent partition of
// the current corpus's pair space: same clause signature, same corpus
// fingerprint, one common partition width, every shard index present
// exactly once, every pair in the shard its hash assigns it to, and no
// corpus pair missing. The published graph — q-values included, which are
// adjusted over the merged corpus-wide family — is byte-identical to a
// local BuildGraph under the same clause.
func (f *Framework) MergeGraphShards(clause Clause, shards [][]byte) (GraphStats, error) {
	t0 := time.Now()
	f.mu.RLock()
	defer f.mu.RUnlock()
	var st GraphStats
	if !f.indexedLocked() {
		return st, fmt.Errorf("core: BuildIndex must run before MergeGraphShards")
	}
	if len(shards) == 0 {
		return st, fmt.Errorf("core: no shards to merge")
	}
	sig := graphSignature(clause)
	of := 0
	seen := make(map[int]bool)
	cands := make(map[graphPair][]relgraph.Edge)
	for i, raw := range shards {
		sh, err := parseFlatShard(raw)
		if err != nil {
			return st, fmt.Errorf("shard %d: %w", i, err)
		}
		if sh.sig != sig {
			return st, fmt.Errorf("core: shard %d was computed under a different clause", i)
		}
		what := fmt.Sprintf("shard %d", i)
		if err := f.checkOriginLocked(what, sh.flatOrigin); err != nil {
			return st, err
		}
		if of == 0 {
			of = sh.of
		}
		if sh.of != of {
			return st, fmt.Errorf("core: shard %d has partition width %d, others have %d", i, sh.of, of)
		}
		if sh.shard < 0 || sh.shard >= of {
			return st, fmt.Errorf("core: shard index %d out of range [0,%d)", sh.shard, of)
		}
		if seen[sh.shard] {
			return st, fmt.Errorf("core: shard index %d supplied twice", sh.shard)
		}
		seen[sh.shard] = true
		for _, p := range sh.pairs {
			if PairShard(p.A, p.B, of) != sh.shard {
				return st, fmt.Errorf("core: pair %q|%q does not belong to shard %d", p.A, p.B, sh.shard)
			}
		}
		if err := f.addPairsLocked(cands, what, sh.pairs); err != nil {
			return st, err
		}
	}
	if len(seen) != of {
		return st, fmt.Errorf("core: merge received %d of %d shards", len(seen), of)
	}
	// Completeness: every unordered pair of the current corpus must be
	// covered — a partial graph must never be published as if it were whole.
	st.Datasets = len(f.order)
	for i, a := range f.order {
		for _, b := range f.order[i+1:] {
			st.Pairs++
			if _, ok := cands[makeGraphPair(a, b)]; !ok {
				return st, fmt.Errorf("core: merged shards do not cover pair %q|%q", a, b)
			}
		}
	}
	if len(cands) != st.Pairs {
		return st, fmt.Errorf("core: merged shards cover %d pairs, corpus has %d", len(cands), st.Pairs)
	}

	f.graphMu.Lock()
	defer f.graphMu.Unlock()
	f.graphCands = cands
	f.graphSig = sig
	f.graphSel = selectionFromClause(clause)
	tAssemble := time.Now()
	g := assembleGraph(f.graphCands, f.graphSel)
	f.relGraph.Store(g)
	mGraphStageDuration.With("assemble").Observe(time.Since(tAssemble).Seconds())
	f.graphClause = clause
	st.PairsComputed = st.Pairs
	st.Edges = g.NumEdges()
	st.WallDuration = time.Since(t0)
	recordGraphBuild(st)
	mGraphShardMerges.Inc()
	return st, nil
}

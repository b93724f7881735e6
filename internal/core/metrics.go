package core

import "github.com/urbandata/datapolygamy/internal/obsv"

// Package-level metrics for the engine, registered on the default obsv
// registry (promauto style): the serving layer exposes them all via
// GET /metrics without the engine knowing a scraper exists. Updates on
// the hot path are a handful of atomics per query.
var (
	mQueries = obsv.NewCounter("polygamy_queries_total",
		"Relationship queries answered (cache hits included).")
	mQueryErrors = obsv.NewCounter("polygamy_query_errors_total",
		"Relationship queries that returned an error.")
	mQueryCacheHits = obsv.NewCounter("polygamy_query_cache_hits_total",
		"Queries answered from the result cache.")
	mQueryCoalesced = obsv.NewCounter("polygamy_query_coalesced_total",
		"Queries deduplicated against an identical in-flight evaluation.")
	mQueryDuration = obsv.NewHistogram("polygamy_query_duration_seconds",
		"End-to-end query latency (cache hits included).", nil)
	mStageDuration = obsv.NewHistogramVec("polygamy_query_stage_duration_seconds",
		"Uncached query latency by evaluation stage.", nil, "stage")

	mPairsConsidered = obsv.NewCounter("polygamy_planner_pairs_considered_total",
		"Candidate (function, function, resolution, class) tuples enumerated by the planner.")
	mPairsPruned = obsv.NewCounter("polygamy_planner_pairs_pruned_total",
		"Candidate tuples the planner skipped without evaluation.")
	mPairsNotResolvable = obsv.NewCounter("polygamy_planner_pairs_not_resolvable_total",
		"Candidate tuples the planner left out because their one-region test cannot reach alpha.")
	mPairsEvaluated = obsv.NewCounter("polygamy_pairs_evaluated_total",
		"Candidate tuples evaluated to a related pair (stored families not counted).")

	mIndexBuilds = obsv.NewCounter("polygamy_index_builds_total",
		"BuildIndex calls that indexed at least one data set.")
	mIndexBuildDuration = obsv.NewHistogram("polygamy_index_build_duration_seconds",
		"Latency of BuildIndex calls that indexed at least one data set.", nil)
	mIndexFunctions = obsv.NewGauge("polygamy_index_functions",
		"Indexed function entries after the latest build or load.")
	mRebuilds = obsv.NewCounter("polygamy_rebuilds_total",
		"Index rebuilds forced by data sets starting in an earlier step than the corpus.")

	mGraphBuilds = obsv.NewCounter("polygamy_graph_builds_total",
		"Relationship graph builds.")
	mGraphBuildDuration = obsv.NewHistogram("polygamy_graph_build_duration_seconds",
		"Relationship graph build latency.", nil)
	mGraphPairsComputed = obsv.NewCounter("polygamy_graph_pairs_computed_total",
		"Graph pair evaluations computed fresh.")
	mGraphPairsReused = obsv.NewCounter("polygamy_graph_pairs_reused_total",
		"Graph pair evaluations served from the family store.")
	mGraphStageDuration = obsv.NewHistogramVec("polygamy_graph_build_stage_duration_seconds",
		"Graph build latency by stage (plan, evaluate, assemble).", nil, "stage")
	mGraphEdges = obsv.NewGauge("polygamy_graph_edges",
		"Edges in the current relationship graph.")

	mIngests = obsv.NewCounter("polygamy_ingests_total",
		"Datasets ingested into a live corpus.")
	mAppends = obsv.NewCounter("polygamy_appends_total",
		"Append-slice operations absorbed tile-incrementally.")
	mAppendFallbacks = obsv.NewCounter("polygamy_append_fallbacks_total",
		"Appends recomputed from an empty base (nothing indexed yet).")
	mAppendDuration = obsv.NewHistogram("polygamy_append_duration_seconds",
		"Append-slice latency (tile recompute plus graph patch).", nil)

	mSnapshotSaves = obsv.NewCounter("polygamy_snapshot_saves_total",
		"Snapshots written.")
	mSnapshotSaveDuration = obsv.NewHistogram("polygamy_snapshot_save_duration_seconds",
		"Snapshot save latency.", nil)
	mSnapshotLoads = obsv.NewCounterVec("polygamy_snapshot_loads_total",
		"Snapshots opened, by adoption mode (mmap or heap).", "mode")
	mSnapshotLoadDuration = obsv.NewHistogram("polygamy_snapshot_load_duration_seconds",
		"Snapshot open latency.", nil)
	// map is the mmap plus the section checksums, parse both section
	// parsers, install the index install plus the graph apply.
	mSnapshotLoadStageDuration = obsv.NewHistogramVec("polygamy_snapshot_load_stage_duration_seconds",
		"Snapshot open latency by stage (map, parse, install).", nil, "stage")
	mSnapshotMappedBytes = obsv.NewGauge("polygamy_snapshot_mapped_bytes",
		"Bytes of the current snapshot served zero-copy from the page cache.")
)

// recordGraphBuild folds one BuildGraph call into the graph metrics.
func recordGraphBuild(st GraphStats) {
	mGraphBuilds.Inc()
	mGraphBuildDuration.Observe(st.WallDuration.Seconds())
	mGraphPairsComputed.Add(uint64(st.PairsComputed))
	mGraphPairsReused.Add(uint64(st.PairsReused))
	mGraphEdges.Set(float64(st.Edges))
}

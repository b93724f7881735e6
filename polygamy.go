// Package datapolygamy is a from-scratch Go implementation of the Data
// Polygamy framework (Chirigati, Doraiswamy, Damoulas, Freire — SIGMOD
// 2016): a scalable, topology-based system for discovering statistically
// significant relationships between urban spatio-temporal data sets.
//
// # Overview
//
// Data Polygamy answers relationship queries of the form "find all data
// sets related to a given data set". Each (data set, attribute) pair is
// transformed into a time-varying scalar function over a spatio-temporal
// domain graph; merge trees index the function's topology; salient and
// extreme features (unusually high or low spatio-temporal regions) are
// extracted with automatically computed, persistence-based thresholds; and
// function pairs are scored with the relationship score tau and strength
// rho, filtered by restricted Monte Carlo permutation tests that respect
// spatial and temporal dependence.
//
// # Quick start
//
//	city, _ := datapolygamy.GenerateCity(datapolygamy.DefaultCityConfig(1))
//	fw, _ := datapolygamy.New(datapolygamy.Options{City: city})
//	_ = fw.AddDataset(taxi)     // *datapolygamy.Dataset
//	_ = fw.AddDataset(weather)
//	_, _ = fw.BuildIndex()
//	rels, _, _ := fw.Query(datapolygamy.Query{
//		Sources: []string{"taxi"},
//		Clause:  datapolygamy.Clause{MinScore: 0.6},
//	})
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system inventory and experiment index.
package datapolygamy

import (
	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/jobs"
	"github.com/urbandata/datapolygamy/internal/montecarlo"
	"github.com/urbandata/datapolygamy/internal/queryparse"
	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stats"
	"github.com/urbandata/datapolygamy/internal/store"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// Framework is the Data Polygamy engine for one corpus of data sets.
//
// Once BuildIndex has succeeded, Query and every other read method are
// safe for concurrent use from any number of goroutines; AddDataset,
// BuildIndex, and Load take the framework's state lock exclusively.
// Identical concurrent queries are deduplicated: one evaluation runs and
// the other callers wait for its result (QueryStats.Coalesced). See the
// core.Framework documentation for the full concurrency contract.
//
// A framework's derived state persists as one snapshot container:
// Framework.Save writes it atomically, Framework.Load / Open restore it
// (warm start), and Framework.IngestDataset adds a data set to a live
// framework without blocking readers behind the indexing job.
// Framework.AppendSlice extends a registered data set with new time — the
// tiled temporal domain recomputes only the affected tiles and re-tests
// only the graph edges whose supporting window changed.
type Framework = core.Framework

// Options configures a Framework.
type Options = core.Options

// Query is a relationship query between collections of data sets.
type Query = core.Query

// Clause filters and parameterises a relationship query.
type Clause = core.Clause

// Relationship is one statistically evaluated function pair.
type Relationship = core.Relationship

// Resolution is a spatio-temporal evaluation resolution pair.
type Resolution = core.Resolution

// QueryStats describes the work a query performed.
type QueryStats = core.QueryStats

// IndexStats describes the work one BuildIndex call performed. With
// incremental indexing, it covers only the data sets indexed by that call.
type IndexStats = core.IndexStats

// DatasetStats reports the index footprint of one data set (see
// Framework.DatasetIndexStats).
type DatasetStats = core.DatasetStats

// AppendStats reports what one Framework.AppendSlice call did: the tile
// reuse split, the data sets whose features changed, and the graph pairs
// invalidated for re-test.
type AppendStats = core.AppendStats

// Occupancy summarises one feature bit-vector family by popcounts; the
// query planner prunes candidate pairs with these.
type Occupancy = core.Occupancy

// FunctionEntry is one indexed scalar function with its feature sets.
type FunctionEntry = core.FunctionEntry

// Dataset is a named spatio-temporal data set of tuples {K, S, T, A1..Ak}.
type Dataset = dataset.Dataset

// Tuple is one record of a data set.
type Tuple = dataset.Tuple

// CityMap is the spatial substrate: an irregular city partitioned into
// regions at zip-code and neighborhood resolutions with adjacency.
type CityMap = spatial.CityMap

// CityConfig controls synthetic city generation.
type CityConfig = spatial.Config

// FeatureClass selects salient or extreme features.
type FeatureClass = feature.Class

// Feature classes.
const (
	Salient = feature.Salient
	Extreme = feature.Extreme
)

// Spatial resolutions.
const (
	GPS          = spatial.GPS
	ZipCode      = spatial.ZipCode
	Neighborhood = spatial.Neighborhood
	City         = spatial.City
)

// Temporal resolutions.
const (
	Second = temporal.Second
	Hour   = temporal.Hour
	Day    = temporal.Day
	Week   = temporal.Week
	Month  = temporal.Month
)

// SpatialResolution is a spatial resolution (GPS, ZipCode, Neighborhood,
// City).
type SpatialResolution = spatial.Resolution

// TemporalResolution is a temporal resolution (Second .. Month).
type TemporalResolution = temporal.Resolution

// Correction selects the multiple-hypothesis correction applied across a
// query's (or graph build's) tested pairs — see Clause.Correction. Under a
// correction, relationships carry q-values (adjusted p-values) and are
// significant when q <= alpha, controlling the false discovery rate over
// the whole tested family instead of per pair.
type Correction = stats.Correction

// Multiple-hypothesis corrections.
const (
	// NoCorrection applies the paper's per-pair rule: q = p.
	NoCorrection = stats.None
	// BenjaminiHochberg controls the FDR under independence or positive
	// dependence.
	BenjaminiHochberg = stats.BH
	// BenjaminiYekutieli controls the FDR under arbitrary dependence.
	BenjaminiYekutieli = stats.BY
)

// ParseCorrection parses a correction name ("none", "bh", "by"; the empty
// string means none).
func ParseCorrection(s string) (Correction, error) { return stats.ParseCorrection(s) }

// TestKind selects the permutation scheme of the significance test.
type TestKind = montecarlo.Kind

// Permutation test kinds.
const (
	RestrictedTest = montecarlo.Restricted
	StandardTest   = montecarlo.Standard
	// BlockTest permutes whole temporal blocks (the block-bootstrap family
	// the paper cites): within-block dependence is preserved, long-range
	// alignment is broken.
	BlockTest = montecarlo.Block
)

// ScalarKind distinguishes density, unique, and attribute functions.
type ScalarKind = scalar.Kind

// Scalar function kinds.
const (
	Density   = scalar.Density
	Unique    = scalar.Unique
	Attribute = scalar.Attribute
)

// New creates a Framework over the given city.
func New(opts Options) (*Framework, error) { return core.New(opts) }

// GenerateCity builds a deterministic synthetic city.
func GenerateCity(cfg CityConfig) (*CityMap, error) { return spatial.Generate(cfg) }

// Point is a location in the plane.
type Point = spatial.Point

// Polygon is a simple polygon given by its vertices in order.
type Polygon = spatial.Polygon

// PolygonConfig describes a city built from explicit polygon partitions
// (e.g. converted neighborhood and zip-code shapefiles).
type PolygonConfig = spatial.PolygonConfig

// CityFromPolygons builds a city from explicit polygon partitions — the
// path for real data instead of the synthetic generator.
func CityFromPolygons(cfg PolygonConfig) (*CityMap, error) { return spatial.FromPolygons(cfg) }

// DefaultCityConfig returns an NYC-sized city configuration (~300 regions
// at both zip-code and neighborhood resolutions).
func DefaultCityConfig(seed int64) CityConfig { return spatial.DefaultConfig(seed) }

// Missing is the sentinel for absent attribute values (NaN).
func Missing() float64 { return dataset.Missing() }

// ParseQuery parses the paper's textual relationship-query form, e.g.
//
//	find relationships between taxi and weather
//	  where score >= 0.6 and strength >= 0.3
//	  at (hour, city)
//	  using extreme features
func ParseQuery(s string) (Query, error) { return queryparse.Parse(s) }

// FormatQuery renders a query back into the textual form ParseQuery
// accepts; for queries expressible in the grammar, ParseQuery(FormatQuery(q))
// reproduces q exactly.
func FormatQuery(q Query) string { return queryparse.Format(q) }

// RelationshipGraph is the materialized corpus-wide relationship graph —
// the paper's many-many artifact (Section 1) as a queryable value. Build
// one with Framework.BuildGraph and read it with Framework.RelGraph; a
// graph is immutable and safe for lock-free concurrent reads.
type RelationshipGraph = relgraph.Graph

// GraphEdge is one materialized relationship (tau, rho, p-value at a
// resolution and feature class) between two scalar functions.
type GraphEdge = relgraph.Edge

// GraphNode is one graph vertex: a scalar function participating in at
// least one relationship.
type GraphNode = relgraph.Node

// GraphStats reports what one Framework.BuildGraph call did, including the
// incremental split between computed and reused data set pairs.
type GraphStats = core.GraphStats

// GraphSummary describes a graph's shape: sizes, degree distribution, and
// hub functions and data sets (see RelationshipGraph.Stats).
type GraphSummary = relgraph.Stats

// GraphHub is one high-degree function or data set in a GraphSummary.
type GraphHub = relgraph.Hub

// DatasetRelation is a data-set-level rollup of graph edges (see
// RelationshipGraph.Rollup).
type DatasetRelation = relgraph.DatasetRelation

// GraphRankBy selects the edge-ranking criterion of
// RelationshipGraph.TopK.
type GraphRankBy = relgraph.RankBy

// Edge-ranking criteria.
const (
	// RankByScore ranks edges by |tau| descending.
	RankByScore = relgraph.ByScore
	// RankByStrength ranks edges by rho descending.
	RankByStrength = relgraph.ByStrength
	// RankByQValue ranks edges by q-value ascending (most trustworthy
	// first).
	RankByQValue = relgraph.ByQValue
)

// OpenOptions configures Open: the framework options plus, optionally, the
// raw corpus data sets, which a snapshot deliberately does not store (the
// index persists precomputed features, not data — Section 5.2).
type OpenOptions = core.OpenOptions

// Open constructs a framework and restores the snapshot container at path
// — the warm-start path: the expensive index (and graph) build is replaced
// by a verified snapshot load. Reads need only the snapshot; without
// OpenOptions.Datasets the framework is read-only, and with them it can
// also add, ingest and append. Framework.Save writes such a container
// atomically; Framework.Load restores one into an existing framework.
func Open(path string, opts OpenOptions) (*Framework, error) { return core.Open(path, opts) }

// SnapshotManifest describes a snapshot container without decoding its
// payload sections: format version, corpus fingerprint, graph clause
// signature, and the per-section checksum table.
type SnapshotManifest = store.Manifest

// SnapshotFingerprint identifies the corpus a snapshot was produced from
// (seed, time range, data set names); a snapshot only loads into a
// framework whose fingerprint matches, or — adopting it — into one with
// no data set registered.
type SnapshotFingerprint = store.Fingerprint

// ReadSnapshotManifest reads and verifies only a snapshot container's
// header and manifest — enough to identify its corpus and contents
// without loading any section.
func ReadSnapshotManifest(path string) (SnapshotManifest, error) { return store.ReadManifest(path) }

// Job is one background operation of the serving layer's job registry
// (runtime ingestion, graph refreshes); see JobManager.
type Job = jobs.Job

// JobStatus is a job's lifecycle state.
type JobStatus = jobs.Status

// Job lifecycle states.
const (
	JobPending = jobs.Pending
	JobRunning = jobs.Running
	JobDone    = jobs.Done
	JobFailed  = jobs.Failed
)

// JobManager runs and tracks background jobs; polygamyd uses one for
// runtime data set ingestion, and embedders can reuse it for their own
// long-running corpus operations.
type JobManager = jobs.Manager

// NewJobManager returns an empty job registry.
func NewJobManager() *JobManager { return jobs.NewManager() }

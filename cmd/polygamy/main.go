// Command polygamy indexes a corpus of CSV data sets and answers
// relationship queries — or materializes the corpus-wide relationship
// graph — from the command line.
//
// Usage:
//
//	polygamy -data dir/ -sources taxi -min-score 0.6
//	polygamy -data dir/ -json -min-score 0.6            # machine-readable results
//	polygamy -data dir/ -graph -graph-format dot        # Graphviz graph export
//	polygamy -data dir/ -graph -graph-format json       # JSON graph export
//	polygamy -data dir/ -save corpus.snap               # also write a snapshot
//	polygamy -load corpus.snap -min-score 0.6           # answer from the snapshot alone
//	polygamy inspect corpus.snap                        # describe a snapshot container
//
// Each file in the data directory must be a data set in the CSV format of
// internal/dataset (WriteCSV). The tool builds the merge-tree index over
// all data sets — or, with -load, opens a snapshot container without
// reading any CSV — and then either runs the relationship operator with the
// given clause and prints the statistically significant relationships
// (human-readable, or JSON with -json), or — with -graph — materializes
// the relationship graph over every data set pair and writes it to stdout
// in DOT or JSON form.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/httpapi"
	"github.com/urbandata/datapolygamy/internal/queryparse"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stats"
)

// cliOptions is the flag set of one polygamy invocation.
type cliOptions struct {
	dataDir    string
	queryStr   string
	sources    string
	targets    string
	minScore   float64
	minRho     float64
	perms      int
	alpha      float64
	correction string
	maxQ       float64
	seed       int64
	grid       int
	workers    int
	stats      bool

	jsonOut     bool   // machine-readable output on stdout
	graph       bool   // materialize the relationship graph instead of querying
	graphFormat string // "dot" or "json"

	savePath string // write a snapshot container after the work
	loadPath string // open a snapshot container instead of reading dataDir and building the index

	stdout io.Writer // test seam; os.Stdout in main
}

func main() {
	// Subcommands dispatch before the flag-based query interface; today
	// the only one is `inspect`, which examines a snapshot container
	// without loading a corpus.
	if len(os.Args) > 1 && os.Args[1] == "inspect" {
		if err := runInspect(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "polygamy:", err)
			os.Exit(1)
		}
		return
	}
	var o cliOptions
	flag.StringVar(&o.dataDir, "data", "", "directory of data set CSV files (required unless -load; not read with -load)")
	flag.StringVar(&o.queryStr, "query", "", `textual query, e.g. "find relationships between taxi and all where score >= 0.6 at (hour, city)"; a second between-clause windows the evaluation in time, e.g. "find relationships between taxi and all between 2012-06-01 and 2012-08-31" (overrides the flag-based clause)`)
	flag.StringVar(&o.sources, "sources", "", "comma-separated source data sets (default: all)")
	flag.StringVar(&o.targets, "targets", "", "comma-separated target data sets (default: all)")
	flag.Float64Var(&o.minScore, "min-score", 0, "minimum |tau|")
	flag.Float64Var(&o.minRho, "min-strength", 0, "minimum rho")
	flag.IntVar(&o.perms, "perms", 1000, "Monte Carlo permutations")
	flag.Float64Var(&o.alpha, "alpha", 0.05, "significance level")
	flag.StringVar(&o.correction, "correction", "none", "multiple-hypothesis correction across tested pairs: none, bh (Benjamini-Hochberg), or by (Benjamini-Yekutieli)")
	flag.Float64Var(&o.maxQ, "max-q", 0, "keep only relationships with q-value <= max-q (0 = no filter)")
	flag.Int64Var(&o.seed, "seed", 1, "city / randomization seed")
	flag.IntVar(&o.grid, "grid", 96, "synthetic city grid side used to place GPS data")
	flag.IntVar(&o.workers, "workers", 0, "worker pool size (0 = NumCPU)")
	flag.BoolVar(&o.stats, "stats", false, "print per-data-set index statistics after indexing")
	flag.BoolVar(&o.jsonOut, "json", false, "write results to stdout as JSON instead of text")
	flag.BoolVar(&o.graph, "graph", false, "materialize the corpus-wide relationship graph and export it instead of answering a query")
	flag.StringVar(&o.graphFormat, "graph-format", "", "graph export format: dot or json (default dot, or json when -json is set)")
	flag.StringVar(&o.savePath, "save", "", "write a snapshot container (index + graph when built) to this path after the work")
	flag.StringVar(&o.loadPath, "load", "", "answer from a snapshot container alone instead of reading -data and building the index (the seed and grid it was built with are required)")
	flag.Parse()
	if o.dataDir == "" && o.loadPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	o.stdout = os.Stdout
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "polygamy:", err)
		os.Exit(1)
	}
}

func run(o cliOptions) error {
	if o.stdout == nil {
		o.stdout = os.Stdout
	}
	if o.graphFormat == "" {
		// -json asks for machine-readable output; honor it in graph mode.
		if o.jsonOut {
			o.graphFormat = "json"
		} else {
			o.graphFormat = "dot"
		}
	}
	if o.graphFormat != "dot" && o.graphFormat != "json" {
		return fmt.Errorf("unknown -graph-format %q (want dot or json)", o.graphFormat)
	}
	if o.graph && o.jsonOut && o.graphFormat != "json" {
		return fmt.Errorf("-json conflicts with -graph-format %s", o.graphFormat)
	}
	corr, err := stats.ParseCorrection(o.correction)
	if err != nil {
		return err
	}
	// Parse and check the query up front so a malformed one fails before
	// the (potentially long) index build.
	var q core.Query
	if o.queryStr != "" {
		q, err = queryparse.Parse(o.queryStr)
		if err != nil {
			return err
		}
		if q.Clause.Permutations == 0 {
			q.Clause.Permutations = o.perms
		}
		// The flags provide defaults the where-clause overrides (like
		// -perms above). A clause cannot distinguish an explicit
		// "correction = none" from no correction condition at all, so with
		// -correction set the only way to run uncorrected is to drop the
		// flag; same for "qvalue <= 0" vs -max-q.
		if q.Clause.Correction == stats.None {
			q.Clause.Correction = corr
		}
		if q.Clause.MaxQ == 0 {
			q.Clause.MaxQ = o.maxQ
		}
	} else {
		q = core.Query{Clause: core.Clause{
			MinScore:     o.minScore,
			MinStrength:  o.minRho,
			Permutations: o.perms,
			Alpha:        o.alpha,
			Correction:   corr,
			MaxQ:         o.maxQ,
		}}
		if o.sources != "" {
			q.Sources = splitNames(o.sources)
		}
		if o.targets != "" {
			q.Targets = splitNames(o.targets)
		}
	}
	if o.graph && (len(q.Sources) > 0 || len(q.Targets) > 0) {
		// The graph is corpus-wide by definition; silently dropping a
		// source/target restriction would misrepresent the output.
		return fmt.Errorf("-graph materializes the graph over all data sets; -sources/-targets (or a between-clause naming data sets) are not supported with it")
	}
	// The merged clause — flags and where-clause — is checked as the engine
	// checks it (a NaN max-q, say, would silently disable the filter), before
	// any CSV or snapshot is read.
	if err := q.Clause.Validate(); err != nil {
		return err
	}
	// The canonical seed+grid city configuration shared with gendata and
	// polygamyd, so snapshots written here warm-start the server.
	city, err := spatial.Generate(spatial.GridConfig(o.seed, o.grid))
	if err != nil {
		return err
	}
	opts := core.Options{City: city, Workers: o.workers, Seed: o.seed}
	var fw *core.Framework
	if o.loadPath != "" {
		// The snapshot names the corpus and its index answers every read:
		// no CSV is read.
		t0 := time.Now()
		if fw, err = core.Open(o.loadPath, core.OpenOptions{Options: opts}); err != nil {
			return fmt.Errorf("loading snapshot %s: %w", o.loadPath, err)
		}
		fmt.Fprintf(os.Stderr, "loaded snapshot %s (%d functions) in %v — no rebuild\n",
			o.loadPath, fw.NumFunctions(), time.Since(t0).Round(1e6))
	} else if fw, err = indexCorpus(o.dataDir, opts); err != nil {
		return err
	}
	if o.stats {
		for _, name := range fw.Datasets() {
			ds, ok := fw.DatasetIndexStats(name)
			if !ok {
				continue
			}
			fmt.Fprintf(os.Stderr, "  %s: %d functions at %d resolutions, %d critical points, %d salient / %d extreme feature bits\n",
				name, ds.Functions, ds.Resolutions, ds.CriticalPoints, ds.SalientFeatures, ds.ExtremeFeatures)
		}
	}
	if o.graph {
		err = runGraph(fw, q.Clause, o)
	} else {
		err = runQuery(fw, q, o)
	}
	if err != nil {
		return err
	}
	// Save last, so a -graph run's materialized graph lands in the
	// snapshot and a later polygamyd -snapshot (or polygamy -load) start
	// is fully warm.
	if o.savePath != "" {
		if err := fw.Save(o.savePath); err != nil {
			return fmt.Errorf("writing snapshot %s: %w", o.savePath, err)
		}
		fmt.Fprintf(os.Stderr, "wrote snapshot %s\n", o.savePath)
	}
	return nil
}

// indexCorpus registers every CSV data set in dir and builds the index.
func indexCorpus(dir string, opts core.Options) (*core.Framework, error) {
	fw, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, d := range ds {
		if err := fw.AddDataset(d); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "loaded %s: %d tuples, %d scalar functions\n",
			d.Name, len(d.Tuples), d.NumScalarFunctions())
	}
	istats, err := fw.BuildIndex()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "indexed %d functions in %v (%v compute + %v feature identification across workers)\n",
		istats.Functions, istats.WallDuration.Round(1e6),
		istats.ComputeDuration.Round(1e6), istats.IndexDuration.Round(1e6))
	return fw, nil
}

// runQuery answers one relationship query and writes the results as text
// or, with -json, as a machine-readable document.
func runQuery(fw *core.Framework, q core.Query, o cliOptions) error {
	rels, qstats, err := fw.Query(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "considered %d candidate pairs (%d pruned and %d not resolvable by planner, %d evaluated) in %v\n",
		qstats.PairsConsidered, qstats.Pruned, qstats.NotResolvable, qstats.Evaluated, qstats.Duration.Round(1e6))
	if o.jsonOut {
		return writeQueryJSON(o.stdout, rels, qstats)
	}
	for _, r := range rels {
		fmt.Fprintln(o.stdout, r)
	}
	fmt.Fprintf(os.Stderr, "%d statistically significant relationships\n", len(rels))
	return nil
}

// runGraph materializes the relationship graph under the query's clause
// and exports it to stdout in the requested format.
func runGraph(fw *core.Framework, clause core.Clause, o cliOptions) error {
	gstats, err := fw.BuildGraph(clause)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "materialized relationship graph: %d edges over %d data set pairs (%d candidates, %d pruned, %d not resolvable) in %v\n",
		gstats.Edges, gstats.Pairs, gstats.PairsConsidered, gstats.Pruned, gstats.NotResolvable, gstats.WallDuration.Round(1e6))
	g, _ := fw.RelGraph()
	if o.graphFormat == "json" {
		return g.WriteJSON(o.stdout)
	}
	return g.WriteDOT(o.stdout)
}

// writeQueryJSON renders query results as a {relationships, stats}
// document; relationships take the daemon's wire form so CLI and server
// consumers share parsers.
func writeQueryJSON(w io.Writer, rels []core.Relationship, stats core.QueryStats) error {
	return json.NewEncoder(w).Encode(httpapi.QueryResponse{
		Relationships: httpapi.Relationships(rels),
		Stats:         httpapi.Stats(stats),
	})
}

func splitNames(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

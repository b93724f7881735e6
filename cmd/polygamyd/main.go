// Command polygamyd is a long-lived Data Polygamy query server: it builds
// the merge-tree index once at startup and then serves concurrent
// relationship queries over HTTP/JSON. The Framework's concurrent read
// path (shared state lock, singleflight query cache, parallel Monte Carlo
// chunks) does the heavy lifting; the server is a thin JSON shell.
//
// Endpoints:
//
//	GET  /healthz      liveness: {"status":"ok"} once the index is built
//	GET  /metrics      Prometheus text exposition of every count the server
//	                   and the engine keep (queries, cache hits, error
//	                   splits, graph builds, jobs)
//	GET  /v1/datasets  the indexed data sets and their index statistics
//	GET  /v1/stats     corpus facts /metrics does not hold: uptime, sizes,
//	                   warm start, snapshot provenance, rebuilds, replica
//	POST /v1/query     structured query: {"sources":[...],"targets":[...],
//	                   "clause":{"minScore":0.6,"permutations":1000,...}}
//	GET  /v1/query?q=  the paper's textual query form, e.g.
//	                   "find relationships between taxi and weather
//	                    where score >= 0.6 at (hour, city)"
//	POST /v1/graph/build      materialize the corpus-wide relationship graph
//	GET  /v1/graph/stats      graph sizes, degree distribution, hubs, rollup
//	GET  /v1/graph/neighbors  ?function= or ?dataset=[&hops=k] exploration
//	GET  /v1/graph/top        ?k=10&by=score|strength edge ranking
//	POST /v1/datasets         ingest one CSV data set into the live corpus
//	                          (runs as a background job; returns 202 + job ID)
//	GET  /v1/jobs             background jobs, newest first
//	GET  /v1/jobs/{id}        one job's status and result
//
// With -snapshot, the snapshot-shipping surface of the replicated tier is
// mounted too (see internal/replica and cmd/polygamyr):
//
//	GET  /v1/snapshot/manifest         current container manifest + ETag
//	GET  /v1/snapshot/sections/{name}  one section, ranged, If-Match-pinned
//
// A graph build then re-saves the snapshot, which is how followers receive
// the graph.
//
// With -replica <leader-url>, the process is a read-only follower: it
// asks the leader for its manifest, which the leader holds until it
// publishes a new snapshot or -poll runs out, pulls changed snapshot
// sections, epoch-swaps a framework opened from the snapshot alone (no raw
// data set is shipped) without dropping in-flight queries, and answers
// GET /v1/replica/status; writes are refused with 403.
//
// Every response carries an X-Request-ID header (client-supplied or
// generated), and every request is logged as a structured line carrying
// that ID. With -pprof, net/http/pprof's profiling endpoints are mounted
// under /debug/pprof/.
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight queries (up to -drain) before exiting.
//
// The corpus is either a directory of CSV data sets (-data, the format of
// cmd/polygamy) or, by default, the synthetic NYC-style urban collection
// (-months, -scale) used throughout the experiments.
//
// With -snapshot, polygamyd warm-starts: if the snapshot container exists
// and matches the corpus, the index (and graph, when saved) are loaded
// instead of rebuilt; otherwise the server cold-builds and then writes the
// snapshot, so the next restart is warm. Runtime ingestion keeps the
// snapshot fresh after each accepted data set and each graph build.
//
// Usage:
//
//	polygamyd -addr :8571 -months 6 -scale 0.3
//	polygamyd -addr :8571 -data corpus/ -snapshot corpus.snap
//	polygamyd -addr :8572 -replica http://leader:8571 -poll 2s  # epochs apply at publish; an idle follower asks every 2s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/obsv"
	"github.com/urbandata/datapolygamy/internal/replica"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/urban"
)

func main() {
	var (
		addr      = flag.String("addr", ":8571", "listen address")
		dataDir   = flag.String("data", "", "directory of data set CSV files (default: synthetic urban corpus)")
		seed      = flag.Int64("seed", 1, "city / randomization seed")
		grid      = flag.Int("grid", 32, "synthetic city grid side")
		months    = flag.Int("months", 6, "synthetic corpus length in months")
		scale     = flag.Float64("scale", 0.3, "synthetic corpus record-volume multiplier")
		workers   = flag.Int("workers", 0, "worker pool size (0 = NumCPU)")
		graph     = flag.Bool("graph", false, "materialize the relationship graph at startup (otherwise POST /v1/graph/build)")
		drain     = flag.Duration("drain", 15*time.Second, "in-flight query drain timeout on SIGINT/SIGTERM")
		snapshot  = flag.String("snapshot", "", "snapshot container path: warm-start from it when present, write it after cold builds, ingestions and graph builds, and ship it to -replica followers; with -replica, the follower's durable copy of its serving epoch, whose unchanged sections a restart reuses (empty: nothing on disk)")
		replicaOf = flag.String("replica", "", "run as a read replica of the leader at this base URL: poll its snapshot, epoch-swap on change, reject writes")
		poll      = flag.Duration("poll", 2*time.Second, "replica mode: how often an idle follower asks the leader for its manifest; the leader holds each request until it publishes or -poll runs out (failures back off exponentially)")
		writeTO   = flag.Duration("write-timeout", 5*time.Minute, "HTTP response write timeout (bounds the slowest handler, e.g. a synchronous graph build)")
		readTO    = flag.Duration("read-timeout", 2*time.Minute, "HTTP request read timeout (bounds the whole body; must accommodate a slow client uploading a CSV data set)")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/ (off by default: they reveal stacks and heap contents)")
		logDebug  = flag.Bool("log-debug", false, "log at debug level (default info)")
	)
	flag.Parse()
	level := slog.LevelInfo
	if *logDebug {
		level = slog.LevelDebug
	}
	// The process-wide default logger: engine packages (core's rebuild
	// warning, the request middleware) all log structured lines through it.
	slog.SetDefault(obsv.NewLogger(os.Stderr, level))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var srv *server
	if *replicaOf != "" {
		// Replica mode: no local corpus assembly — the leader's snapshot is
		// the only source of truth. The first sync must complete before the
		// listener opens, so the replica never serves an empty framework.
		fol, err := replica.NewFollower(replica.FollowerOptions{
			Leader:  *replicaOf,
			Path:    *snapshot,
			Grid:    *grid,
			Workers: *workers,
			Poll:    *poll,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "polygamyd:", err)
			os.Exit(1)
		}
		go fol.Run(ctx)
		readyCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		err = fol.WaitReady(readyCtx)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "polygamyd:", err)
			os.Exit(1)
		}
		srv = newReplicaServer(fol)
		st := fol.Status()
		slog.Info("polygamyd: replica ready", "leader", *replicaOf, "epoch", st.Epoch,
			"datasets", len(st.Fingerprint.Datasets))
	} else {
		fw, err := assembleFramework(*dataDir, *seed, *grid, *months, *scale, *workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "polygamyd:", err)
			os.Exit(1)
		}
		warm, err := prepareFramework(fw, *snapshot, *graph)
		if err != nil {
			fmt.Fprintln(os.Stderr, "polygamyd:", err)
			os.Exit(1)
		}
		srv = newServer(fw)
		srv.snapshotPath = *snapshot
		srv.warmStart = warm
		if *snapshot != "" {
			// A snapshot-backed server is a replication leader: followers
			// poll /v1/snapshot/manifest and pull exactly what changed.
			srv.enableLeader(replica.NewSource(*snapshot))
			slog.Info("polygamyd: snapshot shipping enabled under /v1/snapshot/", "snapshot", *snapshot)
		}
	}
	if *pprofOn {
		srv.enablePprof()
		slog.Info("polygamyd: pprof endpoints enabled under /debug/pprof/")
	}
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTO,
		WriteTimeout:      *writeTO,
		IdleTimeout:       2 * time.Minute,
	}
	if srv.leader != nil {
		hs.RegisterOnShutdown(srv.leader.Close)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polygamyd:", err)
		os.Exit(1)
	}
	fw := srv.fw()
	slog.Info("polygamyd: serving",
		"datasets", len(fw.Datasets()), "functions", fw.NumFunctions(), "addr", ln.Addr().String())
	if err := serveUntilShutdown(ctx, hs, ln, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "polygamyd:", err)
		os.Exit(1)
	}
}

// prepareFramework brings the assembled corpus to a serving-ready state:
// a warm start from the snapshot when one exists and matches, a cold
// build otherwise — followed by writing the snapshot so the next start is
// warm. Returns whether the start was warm.
func prepareFramework(fw *core.Framework, snapshot string, graph bool) (bool, error) {
	warm := false
	if snapshot != "" {
		if _, err := os.Stat(snapshot); err == nil {
			t0 := time.Now()
			if err := fw.Load(snapshot); err != nil {
				slog.Warn("polygamyd: snapshot unusable; falling back to cold build",
					"snapshot", snapshot, "error", err)
			} else {
				warm = true
				_, hasGraph := fw.RelGraph()
				mode := "flat, copied"
				if zeroCopy, _ := fw.LoadedSnapshot(); zeroCopy {
					mode = "flat, zero-copy mmap"
				}
				slog.Info("polygamyd: warm start: loaded snapshot, no rebuild",
					"functions", fw.NumFunctions(), "graph", hasGraph, "snapshot", snapshot,
					"elapsed", time.Since(t0).Round(time.Millisecond), "mode", mode)
			}
		}
	}
	if !warm {
		t0 := time.Now()
		stats, err := fw.BuildIndex()
		if err != nil {
			return false, err
		}
		slog.Info("polygamyd: cold start: indexed corpus",
			"functions", stats.Functions, "elapsed", time.Since(t0).Round(time.Millisecond))
	}
	builtGraph := false
	if _, built := fw.RelGraph(); graph && !built {
		t0 := time.Now()
		gs, err := fw.BuildGraph(core.Clause{})
		if err != nil {
			return false, err
		}
		builtGraph = true
		slog.Info("polygamyd: materialized relationship graph",
			"edges", gs.Edges, "pairs", gs.Pairs, "elapsed", time.Since(t0).Round(time.Millisecond))
	}
	// (Re)write the snapshot whenever this start derived something it did
	// not load: a cold build, or a graph the loaded snapshot lacked.
	if snapshot != "" && (!warm || builtGraph) {
		if err := fw.Save(snapshot); err != nil {
			return false, fmt.Errorf("writing snapshot %s: %w", snapshot, err)
		}
		slog.Info("polygamyd: wrote snapshot (next start is warm)", "snapshot", snapshot)
	}
	return warm, nil
}

// serveUntilShutdown serves on ln until the context is cancelled (SIGINT or
// SIGTERM in main), then shuts the server down gracefully: the listener
// closes immediately and in-flight queries get up to drain to finish. A
// server that fails outright (e.g. the listener dies) returns its error
// without waiting for a signal.
func serveUntilShutdown(ctx context.Context, hs *http.Server, ln net.Listener, drain time.Duration) error {
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	slog.Info("polygamyd: shutdown requested, draining in-flight queries", "drain", drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	// Surface the Serve goroutine's exit; ErrServerClosed is the clean path.
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	slog.Info("polygamyd: drained, bye")
	return nil
}

// assembleFramework registers the corpus — CSVs from dataDir when given,
// otherwise the synthetic urban collection — without building the index:
// indexing (or a warm snapshot load) is prepareFramework's job. The city
// comes from the canonical seed+grid configuration shared with gendata
// and the polygamy CLI, so their snapshots are interchangeable.
func assembleFramework(dataDir string, seed int64, grid, months int, scale float64, workers int) (*core.Framework, error) {
	city, err := spatial.Generate(spatial.GridConfig(seed, grid))
	if err != nil {
		return nil, err
	}
	fw, err := core.New(core.Options{City: city, Workers: workers, Seed: seed})
	if err != nil {
		return nil, err
	}
	if dataDir != "" {
		ds, err := dataset.ReadDir(dataDir)
		if err != nil {
			return nil, err
		}
		for _, d := range ds {
			if err := fw.AddDataset(d); err != nil {
				return nil, err
			}
		}
	} else {
		start := time.Date(2011, time.June, 1, 0, 0, 0, 0, time.UTC)
		col, err := urban.Generate(urban.Config{
			Seed:  seed,
			City:  city,
			Start: start,
			End:   start.AddDate(0, months, 0),
			Scale: scale,
		})
		if err != nil {
			return nil, err
		}
		for _, d := range col.Datasets {
			if err := fw.AddDataset(d); err != nil {
				return nil, err
			}
		}
	}
	return fw, nil
}

// Command polygamyr is the stateless query router of the replicated
// serving tier: it fans POST /v1/query (and the textual GET form) across
// a fleet of polygamyd replicas by consistent hash of the canonical
// query signature, so every distinct query has a home replica whose
// result cache and singleflight absorb repeats, while the signature
// space spreads evenly over the fleet.
//
//	POST /v1/query          routed by query signature, retried on the
//	                        next replica when the home replica fails
//	GET  /v1/query?q=       the textual form, routed identically (both
//	                        forms of the same query share a home)
//	POST /v1/datasets       forwarded to the leader (writes stay there)
//	POST /v1/datasets/{name}/append  likewise
//	POST /v1/graph/build    likewise: the leader builds the graph and its
//	                        re-saved snapshot ships it to the replicas
//	GET  /healthz           router + per-replica health
//	GET  /metrics           router metrics (per-replica request counters,
//	                        retries, health gauges)
//	other GET /v1/*         forwarded to a healthy replica, round-robin
//
// Replicas are health-checked continuously; a replica that fails a
// probe (or a forward) stops receiving signed traffic until it recovers,
// and its signature range re-homes deterministically to the next replica
// on the ring — re-warming only that slice of the cache space.
//
// Usage:
//
//	polygamyr -addr :8570 \
//	  -leader http://leader:8571 \
//	  -replicas http://r1:8571,http://r2:8571,http://r3:8571
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
	"strings"
	"syscall"
	"time"

	"github.com/urbandata/datapolygamy/internal/obsv"
	"github.com/urbandata/datapolygamy/internal/replica"
)

func main() {
	var (
		addr     = flag.String("addr", ":8570", "listen address")
		replicas = flag.String("replicas", "", "comma-separated replica base URLs (required)")
		leader   = flag.String("leader", "", "leader base URL for writes and graph builds (optional; writes 503 without it)")
		health   = flag.Duration("health-interval", time.Second, "replica health probe cadence")
		drain    = flag.Duration("drain", 15*time.Second, "in-flight request drain timeout on SIGINT/SIGTERM")
		logDebug = flag.Bool("log-debug", false, "log at debug level (default info)")
	)
	flag.Parse()
	level := slog.LevelInfo
	if *logDebug {
		level = slog.LevelDebug
	}
	slog.SetDefault(obsv.NewLogger(os.Stderr, level))

	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	rt, err := replica.NewRouter(replica.RouterOptions{
		Leader:         *leader,
		Replicas:       urls,
		HealthInterval: *health,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "polygamyr:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go rt.Run(ctx)

	hs := &http.Server{
		Handler:           rt,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polygamyr:", err)
		os.Exit(1)
	}
	slog.Info("polygamyr: routing", "replicas", len(urls), "leader", *leader, "addr", ln.Addr().String())
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "polygamyr:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "polygamyr: draining:", err)
			os.Exit(1)
		}
		<-errCh
		slog.Info("polygamyr: drained, bye")
	}
}

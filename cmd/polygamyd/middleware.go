package main

import (
	"net/http"
	"strconv"
	"time"

	"github.com/urbandata/datapolygamy/internal/obsv"
)

// This file is the request-observability shell around the route table:
// every request gets an ID (client-supplied X-Request-ID or generated),
// carried through the context so any log line it causes — handler, job
// body, engine warning — can be correlated, and echoed back in the
// response header. The middleware also owns the error taxonomy: handlers
// just write their status, and the recorded code splits failures into
// client (4xx) and server (5xx) errors for /metrics.

// HTTP metrics on the default registry. Routes are the mux patterns, so
// label cardinality is bounded by the route table, not by request paths.
var (
	mHTTPRequests = obsv.NewCounterVec("polygamy_http_requests_total",
		"HTTP requests served, by route pattern and status code.", "route", "code")
	mHTTPDuration = obsv.NewHistogramVec("polygamy_http_request_duration_seconds",
		"HTTP request latency, by route pattern.", nil, "route")
	mHTTPClientErrors = obsv.NewCounter("polygamy_http_client_errors_total",
		"HTTP requests answered with a 4xx status.")
	mHTTPServerErrors = obsv.NewCounter("polygamy_http_server_errors_total",
		"HTTP requests answered with a 5xx status.")
)

// statusRecorder captures the status code a handler writes. A handler
// that writes a body without an explicit WriteHeader gets the implicit
// 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// ServeHTTP is the server's entry point: the request-observability
// middleware wrapped around the mux.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = obsv.NewRequestID()
	}
	w.Header().Set("X-Request-ID", id)
	r = r.WithContext(obsv.WithRequestID(r.Context(), id))

	rec := &statusRecorder{ResponseWriter: w}
	s.mux.ServeHTTP(rec, r)

	status := rec.status
	if status == 0 {
		// Nothing was written: the implicit 200 of an empty-body handler.
		status = http.StatusOK
	}
	switch {
	case status >= 500:
		mHTTPServerErrors.Inc()
	case status >= 400:
		mHTTPClientErrors.Inc()
	}
	// The mux fills r.Pattern on match; an unmatched request (404/405 from
	// the mux itself) keeps the empty pattern, which must not leak raw
	// request paths into a metric label.
	route := r.Pattern
	if route == "" {
		route = "unmatched"
	}
	dur := time.Since(t0)
	mHTTPRequests.With(route, strconv.Itoa(status)).Inc()
	mHTTPDuration.With(route).Observe(dur.Seconds())
	s.logger.Info("http request",
		"method", r.Method,
		"route", route,
		"path", r.URL.Path,
		"status", status,
		"duration", dur.Round(time.Microsecond),
		"requestID", id,
	)
}

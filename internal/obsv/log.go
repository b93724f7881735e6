package obsv

import (
	"crypto/rand"
	"encoding/hex"
	"io"
	"log/slog"
	"sync/atomic"
)

// This file is the structured-logging half of the observability layer:
// one slog configuration shared by every binary, and the request IDs the
// HTTP access logs and the router's forwarded requests carry.

// NewLogger returns a slog text logger writing to w. Binaries install it
// as the process default (slog.SetDefault) so engine-internal packages —
// which log through slog's default logger rather than threading a logger
// value through every layer — share the same sink and format.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// reqSeq breaks request-ID ties when the random source fails (it never
// does on supported platforms, but an ID must still be unique then).
var reqSeq atomic.Uint64

// NewRequestID returns a fresh 16-hex-character request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		seq := reqSeq.Add(1)
		for i := range b {
			b[i] = byte(seq >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

package obsv

import (
	"log/slog"
	"regexp"
	"strings"
	"testing"
)

func TestNewRequestIDFormat(t *testing.T) {
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if !hex16.MatchString(id) {
			t.Fatalf("request ID %q is not 16 lowercase hex chars", id)
		}
		if seen[id] {
			t.Fatalf("request ID %q repeated", id)
		}
		seen[id] = true
	}
}

func TestNewLoggerWritesTextWithFields(t *testing.T) {
	var b strings.Builder
	logger := NewLogger(&b, slog.LevelInfo)
	logger.Debug("hidden")
	logger.Info("rebuild", "dataset", "weather", "requestID", "abc123")
	out := b.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("debug line leaked through info level: %q", out)
	}
	for _, want := range []string{"msg=rebuild", "dataset=weather", "requestID=abc123"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q: %q", want, out)
		}
	}
}

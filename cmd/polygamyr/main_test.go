package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the tests run the real main(): a child process of the test
// binary with runMainEnv set is the router itself, flags, exit codes and
// signal handling included.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

const runMainEnv = "POLYGAMYR_TEST_RUN_MAIN"

func routerCommand(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// TestFlagValidation: a router without replicas, or with a listen address
// it cannot bind, says why on stderr and exits non-zero.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no replicas", []string{"-addr", "127.0.0.1:0"}, "at least one replica URL"},
		{"blank replicas", []string{"-addr", "127.0.0.1:0", "-replicas", " , "}, "at least one replica URL"},
		{"bad address", []string{"-addr", "not-an-address", "-replicas", "http://127.0.0.1:1"}, "polygamyr: listen"},
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := routerCommand(tc.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("exited 0; output:\n%s", out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestHealthzAgainstStubBackends starts the router over one healthy and
// one failing stub replica: /healthz reports each replica's probe result
// and stays 200 while any replica is up, and SIGTERM drains to a clean
// exit.
func TestHealthzAgainstStubBackends(t *testing.T) {
	stub := func(status int) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
			fmt.Fprint(w, `{"status":"stub"}`)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	up, down := stub(http.StatusOK), stub(http.StatusInternalServerError)

	cmd := routerCommand("-addr", "127.0.0.1:0", "-health-interval", "20ms",
		"-replicas", up.URL+", "+down.URL)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The "routing" log line carries the bound address. The reader
	// goroutine owns the process's exit: Wait may only follow the last
	// read from the stderr pipe.
	addrRE := regexp.MustCompile(`msg="polygamyr: routing".* addr=(\S+)`)
	addrCh := make(chan string, 1)
	var (
		exited  = make(chan struct{})
		logs    strings.Builder
		exitErr error
	)
	go func() {
		defer close(exited)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			logs.WriteString(sc.Text() + "\n")
			if m := addrRE.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
			}
		}
		exitErr = cmd.Wait()
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("router never logged its listen address")
	}

	type health struct {
		Status   string          `json:"status"`
		Replicas map[string]bool `json:"replicas"`
	}
	var h health
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz status %d with one replica up: %s", resp.StatusCode, body)
		}
		h = health{}
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("/healthz body %s: %v", body, err)
		}
		// Replicas start optimistically healthy; wait for a probe to have
		// demoted the failing one.
		if !h.Replicas[down.URL] || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h.Status != "ok" || len(h.Replicas) != 2 || !h.Replicas[up.URL] || h.Replicas[down.URL] {
		t.Errorf("/healthz = %+v, want ok with %s up and %s down", h, up.URL, down.URL)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if exitErr != nil {
			t.Errorf("router exited with %v after SIGTERM; log:\n%s", exitErr, logs.String())
		}
		if !strings.Contains(logs.String(), "drained, bye") {
			t.Errorf("no drain message in the log:\n%s", logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("router did not exit after SIGTERM")
	}
}

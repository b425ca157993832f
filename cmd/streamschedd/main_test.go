package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"0": 0, "512": 512, "64k": 64 << 10, "256m": 256 << 20, "1g": 1 << 30, " 2K ": 2048,
	}
	for in, want := range cases {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "12q", "k"} {
		if _, err := parseBytes(bad); err == nil {
			t.Errorf("parseBytes(%q) succeeded", bad)
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-cachebytes", "lots"},
		{"-maxbody", "nah"},
		{"-timeout", "soon"},
		{"-bogus"},
	} {
		if err := realMain(args, io.Discard, nil); err == nil {
			t.Errorf("realMain(%v) succeeded", args)
		}
	}
}

// TestDaemonLifecycle boots the real daemon on an ephemeral port, serves
// a plan request end to end, and shuts it down with a real SIGTERM.
func TestDaemonLifecycle(t *testing.T) {
	var logs bytes.Buffer
	var mu sync.Mutex
	logw := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logs.Write(p)
	})
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- realMain([]string{"-listen", "127.0.0.1:0", "-cachebytes", "1m"}, logw, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	base := "http://" + addr
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	body := `{"graph": {"name": "p", "nodes": [{"name": "a", "state": 8}, {"name": "b", "state": 8}], "edges": [{"from": 0, "to": 1, "out": 1, "in": 1}]}, "m": 256}`
	for i, want := range []string{"miss", "hit"} {
		resp, err := http.Post(base+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || resp.Header.Get("X-Streamsched-Cache") != want {
			t.Fatalf("plan %d: status %d, cache %q (want %s)", i, resp.StatusCode, resp.Header.Get("X-Streamsched-Cache"), want)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, want := range []string{"listening on", "shutting down", "bye"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log missing %q:\n%s", want, logs.String())
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

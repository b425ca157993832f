package main

import (
	"path/filepath"
	"runtime/debug"
	"testing"
)

// TestBuiltWithProfile: go build and go test compile this main package
// with its default.pgo (Go's default -pgo=auto), so the binary's build
// settings name that file. A deleted, renamed or ignored profile fails
// here; cmd/refresh-pgo.sh regenerates it.
func TestBuiltWithProfile(t *testing.T) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		t.Fatal("no build info")
	}
	want, err := filepath.Abs("default.pgo")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range info.Settings {
		if s.Key == "-pgo" {
			if s.Value != want {
				t.Fatalf("built with -pgo=%s, want %s", s.Value, want)
			}
			return
		}
	}
	t.Fatalf("built without a profile, want -pgo=%s", want)
}

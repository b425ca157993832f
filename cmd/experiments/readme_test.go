package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateReadme = flag.Bool("update", false, "rewrite README.md from the registry")

// TestReadmeMatchesRegistry pins README.md to the experiment registry:
// the whole file is generated from the registered ids and titles, so
// registering, retitling, or removing an experiment without refreshing
// the documentation fails here. Refresh with:
//
//	go test ./cmd/experiments -run TestReadmeMatchesRegistry -update
func TestReadmeMatchesRegistry(t *testing.T) {
	want := registryReadme()
	if *updateReadme {
		if err := os.WriteFile("README.md", []byte(want), 0o644); err != nil {
			t.Fatalf("rewrite README.md: %v", err)
		}
		return
	}
	got, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README.md (generate it with -update): %v", err)
	}
	if string(got) != want {
		t.Errorf("README.md is stale; regenerate with `go test ./cmd/experiments -run TestReadmeMatchesRegistry -update`\n%s",
			firstDiff(string(got), want))
	}
}

// firstDiff points at the first line where two documents diverge.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return "first difference at line " + itoa(i+1) + ":\n  have: " + gl[i] + "\n  want: " + wl[i]
		}
	}
	return "documents differ in length (have " + itoa(len(gl)) + " lines, want " + itoa(len(wl)) + ")"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// TestReadmeCoversObsFlags guards the usage half of the document: every
// observability flag the binary accepts must appear in the README's flag
// table, and the registry table must mention the newest experiment id so
// a lazy regeneration of just one section cannot pass.
func TestReadmeCoversObsFlags(t *testing.T) {
	doc := registryReadme()
	for _, flagName := range []string{"-metrics", "-cpuprofile", "-memprofile", "-trace", "-v", "-run", "-jobs", "-full", "-seed", "-list"} {
		if !strings.Contains(doc, "`"+flagName+" ") && !strings.Contains(doc, "`"+flagName+"`") {
			t.Errorf("README does not document the %s flag", flagName)
		}
	}
	if !strings.Contains(doc, "| E21 |") {
		t.Error("README experiment table is missing E21")
	}
}

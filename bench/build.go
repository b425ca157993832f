//go:build linux

package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// binaries are the programs under test, built from the checkout's source.
type binaries struct {
	cli, daemon string
	// layers is the tagged layer probe; empty when it does not build at
	// this commit, which only a traced run cares about.
	layers    string
	layersErr string
	buildS    float64
}

// buildAll builds the CLI and the daemon, and tries the layer probe. go
// build is a no-op when nothing changed, so every run pays it; its time
// is the build_s diagnostic and never part of setup_s. The toolchain's
// cache and temporary directories are whatever the environment names:
// run.sh points them into bench/out, so that a run reads and writes only
// inside the checkout.
func buildAll(root, outDir string, withLayers bool) (*binaries, error) {
	binDir := filepath.Join(outDir, "bin")
	for _, d := range []string{binDir, filepath.Join(outDir, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	b := &binaries{
		cli:    filepath.Join(binDir, "streamsched"),
		daemon: filepath.Join(binDir, "streamschedd"),
	}
	t0 := time.Now()
	gobuild := func(dir string, args ...string) ([]byte, error) {
		cmd := exec.Command("go", append([]string{"build"}, args...)...)
		cmd.Dir = dir
		return cmd.CombinedOutput()
	}
	if out, err := gobuild(root, "-o", binDir+string(filepath.Separator), "./cmd/streamsched", "./cmd/streamschedd"); err != nil {
		return nil, fmt.Errorf("go build ./cmd/streamsched ./cmd/streamschedd: %v\n%s", err, out)
	}
	if withLayers {
		b.layers = filepath.Join(binDir, "layers")
		if out, err := gobuild(filepath.Join(root, "bench"), "-tags", "benchlayers", "-o", b.layers, "./layers"); err != nil {
			b.layers, b.layersErr = "", fmt.Sprintf("%v\n%s", err, out)
		}
	}
	b.buildS = time.Since(t0).Seconds()
	return b, nil
}

package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the CLI golden files instead of comparing")

// TestRunGolden pins what run prints for the runs used to compare
// detection changes end to end: every number of the pipeline, the
// classifier and second-order detection (vendor A), the retention
// profile, and the equal-budget random baseline. A run that fails
// pins its error too, as the line main would print to stderr.
// Regenerate with go test ./cmd/parbor -run TestRunGolden -update.
func TestRunGolden(t *testing.T) {
	cases := []struct {
		golden string
		opts   options
	}{
		{"vendorC-compare-random.golden", options{
			vendorName: "C", rows: 512, chips: 8, seed: 42, compareRandom: true,
		}},
		{"vendorA-extended-retention-random.golden", options{
			vendorName: "A", rows: 512, chips: 8, seed: 42,
			classify: true, extended: true, profileRet: true, compareRandom: true,
		}},
		{"toy-extended-rows256-seed5.golden", options{
			vendorName: "toy", rows: 256, chips: 8, seed: 5, classify: true, extended: true,
		}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			out, err := captureStdout(t, func() error { return run(context.Background(), c.opts) })
			if err != nil {
				out = append(out, "parbor: "+err.Error()+"\n"...)
			}
			path := filepath.Join("testdata", c.golden)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, out, want)
			}
		})
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what fn printed along with fn's error.
func captureStdout(t *testing.T, fn func() error) ([]byte, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	ferr := fn()
	w.Close()
	out := <-read
	r.Close()
	return out, ferr
}

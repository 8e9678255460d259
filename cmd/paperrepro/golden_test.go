package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"parbor/internal/exp"
)

var updateGolden = flag.Bool("update", false, "rewrite the artifact golden files instead of comparing")

// TestRunGolden pins what run prints for each artifact of the paper's
// evaluation, one golden file per artifact, at a small configuration
// (-rows 128 -modules 1 -seed 9 -workloads 4 -simns 5e5). Regenerate
// with go test ./cmd/paperrepro -run TestRunGolden -update.
func TestRunGolden(t *testing.T) {
	const order = "table1|fig11|fig12|fig13|fig14|fig15|table2|fig16|appendix|retention"
	if got := names(); got != order {
		t.Fatalf("artifacts in order %s, want %s", got, order)
	}
	o := exp.Options{RowsPerChip: 128, ModulesPerVendor: 1, Seed: 9}
	fo := exp.Fig16Options{Workloads: 4, SimNs: 5e5, Seed: 9}
	for _, a := range artifacts {
		t.Run(a.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), &out, a.name, o, fo, nil); err != nil {
				t.Fatalf("run(%q): %v", a.name, err)
			}
			path := filepath.Join("testdata", a.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, out.Bytes(), want)
			}
		})
	}
}

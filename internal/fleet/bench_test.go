package fleet

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/fleetlog"
	"parbor/internal/memctl"
	"parbor/internal/scramble"
)

// BenchmarkAnalyticsHandler serves GET /v1/analytics over httptest
// from a summarized log of 2000 modules, as a daemon serves a query
// while nothing is appended: the log's classification, the response's
// JSON encoding and its transfer to the client, which reads the body
// whole. It reports ms/op, allocs/op (the server's and the client's)
// and the response's bytes/op.
func BenchmarkAnalyticsHandler(b *testing.B) {
	const modules, epochs = 2000, 8
	dir := b.TempDir()
	w, err := fleetlog.OpenWriter(dir, fleetlog.WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for ep := 1; ep <= epochs; ep++ {
		for m := range modules {
			ev := fleetlog.Event{Module: fmt.Sprintf("mod-%04d", m), Epoch: ep}
			for range r.Intn(4) {
				ev.Fails = append(ev.Fails, memctl.BitAddr{
					Chip: int16(r.Intn(8)), Bank: int16(r.Intn(8)),
					Row: int32(r.Intn(64)), Col: int32(r.Intn(64)),
				})
			}
			if err := w.Append(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	d, err := NewDaemon(Config{Workers: 1, LogDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	srv := httptest.NewServer(d.Handler())
	b.Cleanup(srv.Close)

	get := func() int64 {
		resp, err := http.Get(srv.URL + "/v1/analytics")
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		n, err := io.Copy(io.Discard, resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("GET /v1/analytics: %d, %v", resp.StatusCode, err)
		}
		return n
	}
	get() // writes the summaries
	var bytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		bytes += get()
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
	b.ReportMetric(float64(bytes)/float64(b.N), "resp-bytes/op")
}

// BenchmarkDetectDistances runs the neighbor detection a spec without
// distances triggers at enrollment, on one module of each vendor at the
// benchmark fleet's geometry (8 chips x 32 rows x 8K columns, the
// default coupling at a 2e-3 vulnerable-cell rate, the default noise
// model): the twin's construction, discovery and the recursion.
func BenchmarkDetectDistances(b *testing.B) {
	cc := coupling.DefaultConfig()
	cc.VulnerableRate = 2e-3
	for _, v := range []scramble.Vendor{scramble.VendorA, scramble.VendorB, scramble.VendorC} {
		b.Run(v.String(), func(b *testing.B) {
			spec := ModuleSpec{
				ID: "detect", Vendor: v.String(), Chips: 8, Banks: 1, Rows: 32, Cols: 8192,
				Seed: 7, Coupling: cc, Faults: faults.DefaultConfig(),
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := detectDistances(context.Background(), spec, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

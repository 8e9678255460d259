package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// apiFleet spins up a daemon with workers running and its API served
// over httptest.
func apiFleet(t *testing.T) (*Daemon, *httptest.Server) {
	t.Helper()
	d := newDaemon(t, Config{Workers: 2})
	d.Start(context.Background())
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Pool().drain()
	})
	return d, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp
}

func TestAPIEnrollRunAndInspect(t *testing.T) {
	d, srv := apiFleet(t)

	resp, body := postJSON(t, srv.URL+"/v1/modules", EnrollRequest{Spec: testSpec(300)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("enroll: %d: %s", resp.StatusCode, body)
	}
	var st ModuleStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("enroll response: %v", err)
	}
	if st.ID != "mod-0300" || st.Vendor != "toy" {
		t.Fatalf("enroll response off: %+v", st)
	}

	// Duplicate -> 409; bad spec -> 400; unknown field -> 400.
	if resp, _ := postJSON(t, srv.URL+"/v1/modules", EnrollRequest{Spec: testSpec(300)}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate enroll: %d, want 409", resp.StatusCode)
	}
	bad := testSpec(301)
	bad.Vendor = "nope"
	if resp, _ := postJSON(t, srv.URL+"/v1/modules", EnrollRequest{Spec: bad}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad vendor enroll: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/modules", map[string]any{"spec": testSpec(302), "tpyo": 1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field enroll: %d, want 400", resp.StatusCode)
	}

	d.Quiesce()

	// Status reflects the finished run.
	var got ModuleStatus
	if resp := getJSON(t, srv.URL+"/v1/modules/mod-0300", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	if got.Status != StatusDone || got.Epochs != 4 {
		t.Fatalf("status after quiesce: %+v", got)
	}

	// List contains exactly our module.
	var list struct {
		Modules []ModuleStatus `json:"modules"`
	}
	getJSON(t, srv.URL+"/v1/modules", &list)
	if len(list.Modules) != 1 || list.Modules[0].ID != "mod-0300" {
		t.Fatalf("list: %+v", list)
	}

	// Report is a parbor/report/v1 with command accounting.
	var rep struct {
		Schema   string            `json:"schema"`
		Commands map[string]uint64 `json:"commands"`
	}
	getJSON(t, srv.URL+"/v1/modules/mod-0300/report", &rep)
	if rep.Schema != "parbor/report/v1" || rep.Commands["activate"] == 0 {
		t.Fatalf("module report: %+v", rep)
	}

	// Rollup sees the one done module.
	var ru Rollup
	getJSON(t, srv.URL+"/v1/rollup", &ru)
	if ru.Schema != RollupSchema || ru.Modules != 1 || ru.Done != 1 || ru.Epochs != 4 {
		t.Fatalf("rollup: %+v", ru)
	}

	// Health and daemon report respond.
	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var drep struct {
		Schema string `json:"schema"`
	}
	getJSON(t, srv.URL+"/v1/report", &drep)
	if drep.Schema != "parbor/report/v1" {
		t.Fatalf("daemon report schema %q", drep.Schema)
	}

	// Unknown module -> 404 on every per-module route.
	for _, path := range []string{"/v1/modules/nope", "/v1/modules/nope/report", "/v1/modules/nope/checkpoint"} {
		if resp := getJSON(t, srv.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestAPICheckpointRoundTrip(t *testing.T) {
	d, srv := apiFleet(t)
	if _, err := d.Enroll(testSpec(310), nil); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	d.Quiesce()

	// Stream the finished module's checkpoint...
	resp, err := http.Get(srv.URL + "/v1/modules/mod-0310/checkpoint")
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	ckpt, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d: %s", resp.StatusCode, ckpt)
	}

	// ...and enroll a second daemon's module from it, unchanged. The
	// budget is spent, so it resumes directly into done with the
	// identical failure set.
	d2, srv2 := apiFleet(t)
	req := map[string]any{"spec": testSpec(310), "snapshot": json.RawMessage(ckpt)}
	if resp, body := postJSON(t, srv2.URL+"/v1/modules", req); resp.StatusCode != http.StatusCreated {
		t.Fatalf("resume enroll: %d: %s", resp.StatusCode, body)
	}
	m1, _ := d.Registry().Get("mod-0310")
	m2, _ := d2.Registry().Get("mod-0310")
	if m2.Status() != StatusDone {
		t.Fatalf("resumed module status %s, want done", m2.Status())
	}
	if !reflect.DeepEqual(m1.Snapshot().Scheduler, m2.Snapshot().Scheduler) {
		t.Fatalf("checkpoint round trip drifted the scheduler state")
	}

	// A corrupted snapshot is rejected.
	if resp, _ := postJSON(t, srv2.URL+"/v1/modules", map[string]any{
		"spec": testSpec(311), "snapshot": json.RawMessage(`{"schema":"bogus"}`),
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus snapshot enroll: %d, want 400", resp.StatusCode)
	}
}

func TestAPIRetireMidRun(t *testing.T) {
	d, srv := apiFleet(t)
	// Unbounded budget: the module would run forever without retire.
	sp := testSpec(320)
	sp.MaxEpochs = 0
	if _, err := d.Enroll(sp, nil); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/modules/mod-0320", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("retire: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retire: %d", resp.StatusCode)
	}
	// The fleet must go quiet on its own now: the retired module is
	// dropped by the next worker that picks it up.
	quiet := make(chan struct{})
	go func() { d.Quiesce(); close(quiet) }()
	select {
	case <-quiet:
	case <-time.After(30 * time.Second):
		t.Fatalf("fleet did not quiesce after retiring its only (unbounded) module")
	}
	if resp := getJSON(t, srv.URL+"/v1/modules/mod-0320", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("retired module still served: %d", resp.StatusCode)
	}
	var ru Rollup
	getJSON(t, srv.URL+"/v1/rollup", &ru)
	if ru.Modules != 0 {
		t.Fatalf("rollup still counts retired module: %+v", ru)
	}
}

// TestAPIErrorPaths table-drives the API's failure envelope: every bad
// request must produce the right status code and a JSON {"error": ...}
// body (or, for mux-level method rejections, a plain 405) — never a
// panic, a 200, or a half-written response.
func TestAPIErrorPaths(t *testing.T) {
	_, srv := apiFleet(t)

	badVendor := testSpec(330)
	badVendor.Vendor = "nope"
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
	}{
		{"enroll bad spec", http.MethodPost, "/v1/modules",
			mustJSON(t, EnrollRequest{Spec: badVendor}), http.StatusBadRequest},
		{"enroll invalid json", http.MethodPost, "/v1/modules", `{"spec":`, http.StatusBadRequest},
		{"enroll unknown field", http.MethodPost, "/v1/modules",
			`{"spec":{},"tpyo":1}`, http.StatusBadRequest},
		{"enroll two objects", http.MethodPost, "/v1/modules",
			mustJSON(t, EnrollRequest{Spec: testSpec(332)}) + mustJSON(t, EnrollRequest{Spec: testSpec(333)}), http.StatusBadRequest},
		{"enroll trailing junk", http.MethodPost, "/v1/modules",
			mustJSON(t, EnrollRequest{Spec: testSpec(334)}) + " junk", http.StatusBadRequest},
		{"enroll malformed snapshot", http.MethodPost, "/v1/modules",
			mustJSON(t, map[string]any{"spec": testSpec(331), "snapshot": json.RawMessage(`{"schema":"bogus"}`)}),
			http.StatusBadRequest},
		{"unknown module status", http.MethodGet, "/v1/modules/nope", "", http.StatusNotFound},
		{"unknown module report", http.MethodGet, "/v1/modules/nope/report", "", http.StatusNotFound},
		{"unknown module checkpoint", http.MethodGet, "/v1/modules/nope/checkpoint", "", http.StatusNotFound},
		{"unknown module retire", http.MethodDelete, "/v1/modules/nope", "", http.StatusNotFound},
		{"method not allowed on modules", http.MethodPut, "/v1/modules", "", http.StatusMethodNotAllowed},
		{"method not allowed on module", http.MethodPost, "/v1/modules/x", "", http.StatusMethodNotAllowed},
		{"method not allowed on rollup", http.MethodDelete, "/v1/rollup", "", http.StatusMethodNotAllowed},
		{"analytics without log dir", http.MethodGet, "/v1/analytics", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = bytes.NewReader([]byte(tc.body))
			}
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.method, tc.path, err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("%s %s: status %d, want %d: %s", tc.method, tc.path, resp.StatusCode, tc.wantStatus, out)
			}
			if resp.StatusCode != http.StatusMethodNotAllowed {
				var env struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(out, &env); err != nil || env.Error == "" {
					t.Fatalf("%s %s: error envelope missing: %s", tc.method, tc.path, out)
				}
			}
		})
	}

	// An empty fleet is not an error: rollup serves zeros, list serves
	// an empty array.
	var ru Rollup
	if resp := getJSON(t, srv.URL+"/v1/rollup", &ru); resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-fleet rollup: %d", resp.StatusCode)
	}
	if ru.Schema != RollupSchema || ru.Modules != 0 || ru.Failures != 0 {
		t.Fatalf("empty-fleet rollup off: %+v", ru)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestAPIAnalytics runs a small logged fleet to completion and checks
// the analytics endpoint agrees with the live rollup.
func TestAPIAnalytics(t *testing.T) {
	d := newDaemon(t, Config{Workers: 2, LogDir: t.TempDir()})
	d.Start(context.Background())
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Pool().drain()
	})
	for i := 0; i < 4; i++ {
		if _, err := d.Enroll(testSpec(340+i), nil); err != nil {
			t.Fatalf("enroll: %v", err)
		}
	}
	d.Quiesce()

	var ar struct {
		Schema   string         `json:"schema"`
		Modules  int            `json:"modules"`
		Epochs   int            `json:"epochs"`
		Failures int            `json:"failures"`
		ByMode   map[string]int `json:"by_mode"`
	}
	if resp := getJSON(t, srv.URL+"/v1/analytics", &ar); resp.StatusCode != http.StatusOK {
		t.Fatalf("analytics: %d", resp.StatusCode)
	}
	live := d.Rollup()
	if ar.Schema != "parbor/fleetlog-rollup/v1" {
		t.Fatalf("analytics schema %q", ar.Schema)
	}
	if ar.Modules != live.Modules || ar.Epochs != live.Epochs {
		t.Fatalf("analytics disagrees with live rollup: %+v vs %+v", ar, live)
	}
	if ar.Failures != live.Failures || !reflect.DeepEqual(ar.ByMode, live.ByMode) {
		t.Fatalf("analytics failure split disagrees: %+v vs %+v (live)", ar, live)
	}
}

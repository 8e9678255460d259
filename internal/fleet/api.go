package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"parbor/internal/checkpoint"
	"parbor/internal/strictjson"
)

// The HTTP/JSON API. Routes (Go 1.22 method+wildcard patterns):
//
//	GET    /healthz                    liveness
//	POST   /v1/modules                 enroll (body: EnrollRequest)
//	GET    /v1/modules                 list statuses
//	GET    /v1/modules/{id}            one status
//	DELETE /v1/modules/{id}            retire
//	GET    /v1/modules/{id}/report     parbor/report/v1 for the module
//	GET    /v1/modules/{id}/checkpoint parbor/checkpoint/v2 snapshot
//	GET    /v1/rollup                  fleet-wide failure rollup
//	GET    /v1/analytics               event-log fault-mode analytics
//	GET    /v1/report                  daemon's own parbor/report/v1
//
// Everything is JSON; errors are {"error": "..."} with a 4xx/5xx
// status. The checkpoint endpoint serves checkpoint.Marshal bytes
// verbatim, so `curl .../checkpoint > snap.json` produces a file
// `parbor -resume snap.json` accepts.

// EnrollRequest is the POST /v1/modules body: a spec plus an optional
// checkpoint to resume from — the same pair a persisted StateEntry
// carries, so re-enrolling a saved entry is a byte-level passthrough.
type EnrollRequest struct {
	Spec     ModuleSpec       `json:"spec"`
	Snapshot *json.RawMessage `json:"snapshot,omitempty"`
}

// ModuleStatus is the API view of one enrolled module.
type ModuleStatus struct {
	ID          string `json:"id"`
	Vendor      string `json:"vendor"`
	Status      Status `json:"status"`
	Epochs      int    `json:"epochs"`
	MaxEpochs   int    `json:"max_epochs,omitempty"`
	Rounds      int    `json:"rounds"`
	Failures    int    `json:"failures"`
	Quarantined []int  `json:"quarantined,omitempty"`
	Error       string `json:"error,omitempty"`
}

// status builds the API view from the module's immutable snapshot.
func moduleStatus(m *Module) ModuleStatus {
	st := m.Snapshot().Scheduler
	ms := ModuleStatus{
		ID:          m.ID(),
		Vendor:      m.spec.Vendor,
		Status:      m.Status(),
		Epochs:      st.Epochs,
		MaxEpochs:   m.spec.MaxEpochs,
		Rounds:      st.Rounds,
		Failures:    len(st.EverSeen),
		Quarantined: st.Quarantined,
	}
	if err := m.err(); err != nil {
		ms.Error = err.Error()
	}
	return ms
}

// Handler builds the daemon's HTTP API.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Always 200: a degraded log is an operator signal, not a
		// liveness failure — load balancers must not kill a daemon
		// that is detecting fine and merely buffering its log.
		writeJSON(w, http.StatusOK, d.health())
	})
	mux.HandleFunc("POST /v1/modules", d.handleEnroll)
	mux.HandleFunc("GET /v1/modules", d.handleList)
	mux.HandleFunc("GET /v1/modules/{id}", d.handleModule(func(w http.ResponseWriter, m *Module) {
		writeJSON(w, http.StatusOK, moduleStatus(m))
	}))
	mux.HandleFunc("DELETE /v1/modules/{id}", d.handleRetire)
	mux.HandleFunc("GET /v1/modules/{id}/report", d.handleModule(func(w http.ResponseWriter, m *Module) {
		writeJSON(w, http.StatusOK, m.Report())
	}))
	mux.HandleFunc("GET /v1/modules/{id}/checkpoint", d.handleModule(func(w http.ResponseWriter, m *Module) {
		data, err := m.Snapshot().Marshal()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	}))
	mux.HandleFunc("GET /v1/rollup", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Rollup())
	})
	mux.HandleFunc("GET /v1/analytics", func(w http.ResponseWriter, r *http.Request) {
		if d.cfg.LogDir == "" {
			writeError(w, http.StatusNotFound, errors.New("fleet: no event log configured (run with -log-dir)"))
			return
		}
		// A client that disconnects cancels its query.
		ru, err := d.analytics(r.Context())
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, ru)
	})
	mux.HandleFunc("GET /v1/report", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Report())
	})
	return mux
}

// maxEnrollBody bounds an enrollment payload: a spec is small, and a
// resumed snapshot scales with the failure set, so 16 MiB is generous.
const maxEnrollBody = 16 << 20

func (d *Daemon) handleEnroll(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxEnrollBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: reading body: %w", err))
		return
	}
	if len(body) > maxEnrollBody {
		writeError(w, http.StatusRequestEntityTooLarge, errors.New("fleet: enrollment body over 16 MiB"))
		return
	}
	// Strict decode: a typoed field silently ignored would enroll a
	// module with default (zero) noise models and nobody would notice
	// until the rollup looked implausibly clean.
	// One request enrolls one module, so a second value or junk after
	// the first is rejected too.
	var req EnrollRequest
	if err := strictjson.Decode(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: parsing enrollment: %w", err))
		return
	}
	var snap *checkpoint.Snapshot
	if req.Snapshot != nil {
		s, err := checkpoint.Unmarshal(*req.Snapshot)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		snap = s
	}
	m, err := d.Enroll(req.Spec, snap)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errAlreadyEnrolled) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, moduleStatus(m))
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	mods := d.reg.List()
	out := make([]ModuleStatus, 0, len(mods))
	for _, m := range mods {
		out = append(out, moduleStatus(m))
	}
	writeJSON(w, http.StatusOK, map[string]any{"modules": out})
}

func (d *Daemon) handleRetire(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !d.retire(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("fleet: no module %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"retired": id})
}

// handleModule adapts a per-module handler, resolving {id}.
func (d *Daemon) handleModule(fn func(http.ResponseWriter, *Module)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		m, ok := d.reg.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("fleet: no module %q", id))
			return
		}
		fn(w, m)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

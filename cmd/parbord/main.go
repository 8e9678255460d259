// Command parbord is the PARBOR fleet daemon: it multiplexes
// thousands of checkpointed online-test sweeps over a bounded worker
// pool and serves an HTTP/JSON API to enroll modules, stream
// per-module reports and checkpoints, and query fleet-wide failure
// rollups — the field-study deployment shape (one agent per machine
// park, per-vendor failure populations).
//
// Usage:
//
//	parbord -listen 127.0.0.1:7799 -log-dir /var/lib/parbord
//	parbord -enroll fleet.json -log-dir /var/lib/parbord -run-to-idle -rollup
//
// The scheduling quantum is one transactional online-test epoch:
// every enrolled module is checkpointed (parbor/checkpoint/v2)
// after each completed epoch, so SIGTERM is always a graceful drain —
// in-flight epochs finish, the event log is synced, and the whole
// fleet is written to fleet-state.json in -log-dir. The next parbord
// on the same -log-dir enrolls that file before anything else and
// continues each sweep bit-identically to an uninterrupted run.
//
// -enroll takes a JSON array of fleet state entries
// ({"schema":"parbor/fleet-state/v1","spec":{...},"snapshot":{...}});
// the snapshot is optional, and plain enrollment bodies as accepted
// by POST /v1/modules can be converted by wrapping them in the entry
// schema. A spec enrolled without a snapshot and with an empty
// "test" distance set gets its neighbor distances from PARBOR
// detection on a twin of the module, and keeps them from then on.
// With -run-to-idle the daemon exits once no module wants another
// epoch (instead of waiting for a signal); -rollup prints the final
// fleet rollup JSON to stdout on exit.
//
// API routes are documented in internal/fleet/api.go and DESIGN.md
// section 11.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parbor/internal/faultfs"
	"parbor/internal/fleet"
)

func main() {
	var (
		listen    = flag.String("listen", "", "serve the HTTP API on this address (empty = no API)")
		workers   = flag.Int("workers", 0, "epoch scheduler worker bound (0 = GOMAXPROCS)")
		enroll    = flag.String("enroll", "", "enroll modules from this JSON file (array of fleet state entries)")
		runToIdle = flag.Bool("run-to-idle", false, "exit when the fleet quiesces instead of waiting for a signal")
		rollup    = flag.Bool("rollup", false, "print the final fleet rollup JSON to stdout on exit")
		logDir    = flag.String("log-dir", "", "durable directory: the failure-event log (serves GET /v1/analytics) and the fleet state, persisted on drain and resumed on start")
		logRetain = flag.Int("log-retain", 0, "garbage-collect the event log to this many newest segments after each drain (0 = keep everything)")

		// Disk-chaos soak flags: not for production. A nonzero seed
		// routes all durable state through a deterministic fault
		// injector so operators (and CI) can watch the daemon degrade
		// and recover under real storage failures.
		chaosSeed = flag.Uint64("diskchaos-seed", 0, "TESTING: inject deterministic disk faults seeded with this value (0 = off)")
		chaosProb = flag.Float64("diskchaos-prob", 0.005, "TESTING: per-operation fault probability for -diskchaos-seed")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, options{
		listen:    *listen,
		workers:   *workers,
		enroll:    *enroll,
		runToIdle: *runToIdle,
		rollup:    *rollup,
		logDir:    *logDir,
		logRetain: *logRetain,
		chaosSeed: *chaosSeed,
		chaosProb: *chaosProb,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "parbord: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	listen    string
	workers   int
	enroll    string
	runToIdle bool
	rollup    bool
	logDir    string
	logRetain int
	chaosSeed uint64
	chaosProb float64
}

func run(ctx context.Context, opts options) (err error) {
	var fsys faultfs.FS
	if opts.chaosSeed != 0 {
		p := opts.chaosProb
		inj, err := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorConfig{
			Seed:           opts.chaosSeed,
			WriteErrProb:   p,
			ShortWriteProb: p,
			SyncErrProb:    p,
			ReadErrProb:    p,
			RenameErrProb:  p,
		})
		if err != nil {
			return err
		}
		fsys = inj
		fmt.Fprintf(os.Stderr, "parbord: DISK CHAOS ACTIVE (seed %d, p=%g): injecting storage faults into all durable state\n", opts.chaosSeed, p)
	}
	d, err := fleet.NewDaemon(fleet.Config{
		Workers:   opts.workers,
		LogDir:    opts.logDir,
		LogRetain: opts.logRetain,
		FS:        fsys,
	})
	if err != nil {
		return err
	}
	// Close flushes the event log's final backlog; a failure there is
	// lost data and must surface as the run's error rather than be
	// dropped with the defer.
	defer func() {
		if cerr := d.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing daemon: %w", cerr)
		}
	}()

	if n := d.Registry().Len(); n > 0 {
		fmt.Fprintf(os.Stderr, "parbord: resumed %d modules from %s\n", n, opts.logDir)
	}
	if opts.enroll != "" {
		n, err := enrollFile(d, opts.enroll)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "parbord: enrolled %d modules from %s\n", n, opts.enroll)
	}

	// The API server, if any, lives for the whole run and is shut
	// down after the drain so operators can watch the fleet go quiet.
	var srv *http.Server
	serveErr := make(chan error, 1)
	if opts.listen != "" {
		ln, err := net.Listen("tcp", opts.listen)
		if err != nil {
			return fmt.Errorf("listening on %s: %w", opts.listen, err)
		}
		srv = &http.Server{
			Handler: d.Handler(),
			// Production timeouts: a client that stalls mid-header or
			// trickles a body must not pin a connection (and its
			// goroutine) forever. No WriteTimeout: /v1/analytics
			// legitimately streams a large log; Shutdown's deadline
			// bounds the drain instead.
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			IdleTimeout:       2 * time.Minute,
			MaxHeaderBytes:    1 << 20,
		}
		go func() { serveErr <- srv.Serve(ln) }()
		fmt.Fprintf(os.Stderr, "parbord: serving on %s (%d workers)\n", ln.Addr(), d.Pool().Workers())
	}

	d.Start(ctx)
	if opts.runToIdle {
		// Quiesce on a watcher goroutine so a signal still interrupts
		// a fleet that never goes idle (unbounded modules).
		idle := make(chan struct{})
		go func() { d.Quiesce(); close(idle) }()
		select {
		case <-idle:
		case <-ctx.Done():
		}
	} else {
		<-ctx.Done()
	}

	// Graceful drain: every in-flight epoch completes, every module is
	// left with a current checkpoint, and (with -log-dir) the event log
	// is synced and the fleet persisted.
	drainErr := d.Drain()
	fmt.Fprintf(os.Stderr, "parbord: drained; %d modules enrolled\n", d.Registry().Len())

	if srv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "parbord: api shutdown: %v\n", err)
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fmt.Errorf("api server: %w", err)
		}
	}

	if opts.rollup {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d.Rollup()); err != nil {
			return err
		}
	}
	return drainErr
}

// enrollFile enrolls every entry of a JSON array of fleet state
// entries.
func enrollFile(d *fleet.Daemon, path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n, err := d.EnrollState(data)
	if err != nil {
		return n, fmt.Errorf("%s: %w", path, err)
	}
	return n, nil
}

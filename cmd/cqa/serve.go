package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cqa"
	"cqa/internal/server"
)

// drainTimeout bounds how long shutdown waits for in-flight
// connections before forcing the listener closed.
const drainTimeout = 30 * time.Second

// cmdServe runs the resident serving daemon: an HTTP/NDJSON front end
// over a registry of named instances, with the persistent shard router
// keeping every instance's operations on one resident worker and the
// bounded heavy lane absorbing coNP/SAT-bound decisions (see
// docs/serving.md). On SIGINT/SIGTERM the daemon stops accepting,
// drains in-flight work, prints the final stats snapshot to stderr,
// and exits — non-zero if the drain timed out, logging how much queued
// work was abandoned.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8417", "listen address")
	routerWorkers := fs.Int("router-workers", 0, "resident router workers (default: GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 0, fmt.Sprintf("per-worker task queue bound (default %d)", server.DefaultQueueDepth))
	heavyWorkers := fs.Int("heavy-workers", 0, "heavy-lane workers for coNP/SAT-bound requests (default: router-workers/4, min 1)")
	heavyQueueDepth := fs.Int("heavy-queue-depth", 0, "heavy-lane shared queue bound (default: queue-depth)")
	window := fs.Int("window", 0, fmt.Sprintf("per-connection in-flight batch window (default %d)", server.DefaultWindow))
	maxLine := fs.Int("max-line", 0, fmt.Sprintf("maximum request line length in bytes (default %d)", server.DefaultMaxLine))
	defaultTimeout := fs.Duration("default-timeout", 0, "per-request deadline when the request carries none (0: no deadline); covers queueing, overridable via the CQA-Timeout-Ms header or a timeout_ms NDJSON field")
	memSoftLimit := fs.Int64("mem-soft-limit", 0, "soft heap watermark in bytes; above it the tier memo budgets shrink so decisions degrade to cold builds instead of growing toward an OOM kill (0: disabled)")
	fs.Parse(args)

	eng := cqa.NewEngine(cqa.EngineConfig{})
	srv := server.New(server.Config{
		Registry:        cqa.NewRegistry(eng),
		RouterWorkers:   *routerWorkers,
		QueueDepth:      *queueDepth,
		HeavyWorkers:    *heavyWorkers,
		HeavyQueueDepth: *heavyQueueDepth,
		Window:          *window,
		MaxLine:         *maxLine,
		DefaultTimeout:  *defaultTimeout,
		MemSoftLimit:    *memSoftLimit,
	})
	httpSrv := &http.Server{Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cqa serve: listening on http://%s\n", ln.Addr())

	// drainErr is set by the signal goroutine when the graceful drain
	// failed (timeout with connections still open); the daemon then
	// exits non-zero so supervisors see the unclean stop.
	var drainErr error
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "cqa serve: draining")
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			// The drain timed out: connections are still open and the
			// listener was forced closed under them. Report what is being
			// abandoned and exit non-zero.
			inflight := srv.InFlight()
			fmt.Fprintf(os.Stderr, "cqa serve: drain timed out after %s with %d queued requests abandoned\n", drainTimeout, inflight)
			drainErr = fmt.Errorf("serve: drain timed out: %w (%d queued requests abandoned)", err, inflight)
			// Fall through to Drain anyway: it flips /readyz, stops the
			// watermark watcher, and lets queued router work finish so the
			// stats snapshot below is settled.
		}
		srv.Drain()
		fmt.Fprintln(os.Stderr, statsComment(eng.Stats()))
	}()

	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-drained
	return drainErr
}

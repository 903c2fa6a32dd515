// Command complxd runs placement as a service: an HTTP/JSON daemon with a
// persistent job queue, a bounded worker pool and per-job observability.
//
// Jobs are submitted as JSON specs (POST /jobs), scheduled by priority then
// FIFO, and executed on a pool of -workers placement workers. Each job may
// carry its own thread budget (spec "threads"), so one heavy job cannot
// monopolize the parallel kernels of the others; budgets only change
// scheduling, never results — a job's placement is bitwise identical to the
// same run performed serially with the complx CLI.
//
// Every job checkpoints its global-placement state under the data
// directory. Killing the daemon — even SIGKILL — loses nothing: on restart
// the persisted queue is recovered, interrupted jobs are re-queued and
// resume from their last snapshot, bitwise identical to an uninterrupted
// run (DESIGN.md §10, §12).
//
// The daemon is hardened for hostile load (DESIGN.md §15): submissions pass
// admission control (queue cap, body-size limit, optional rate limit and
// memory watermark → 503/429/413 with Retry-After), running jobs live under
// per-job governance (deadline_seconds, a progress watchdog, panic
// isolation), and a job that keeps crashing the server is quarantined by
// the crash-loop breaker after -max-attempts interrupted runs. See the
// "Operating complxd" section of the README for the runbook.
//
// Observability: GET /metrics serves the daemon-level series followed by
// every job's Prometheus metrics with job="<id>" labels, GET /status
// reports the scheduler and each run's live state, GET /jobs/{id}/events
// streams per-iteration progress as Server-Sent Events, and /obs/{id}/
// exposes each job's full surface (including pprof). GET /healthz is
// liveness; GET /readyz flips to 503 the moment a drain begins.
//
// Example:
//
//	complxd -addr :8080 -data-dir /var/lib/complxd -workers 4
//	curl -XPOST localhost:8080/jobs -d '{"bench":"adaptec1","scale":0.1,"threads":2}'
//	curl localhost:8080/jobs/job-000001/events   # SSE progress
//	curl localhost:8080/jobs/job-000001/result
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"complx"
)

func main() {
	def := defaultConfig()
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		dataDir   = flag.String("data-dir", "./complxd-data", "persistent job store and per-job checkpoints")
		workers   = flag.Int("workers", def.workers, "concurrent placement workers")
		ckptEvery = flag.Int("checkpoint-interval", 0, "iterations between job checkpoints (0 = default 5)")
		threads   = flag.Int("threads", 0, "process-wide worker-pool ceiling for the parallel kernels (0 = GOMAXPROCS)")

		maxQueue = flag.Int("max-queue", def.maxQueue, "queued-job cap; submissions beyond it get 503 (0 = unbounded)")
		maxBody  = flag.Int64("max-body-bytes", def.maxBody, "request body cap in bytes; larger submissions get 413 (0 = unbounded)")
		memWM    = flag.Int("mem-watermark-mb", 0, "pause intake and shed queued jobs while the heap exceeds this many MiB (0 = disabled)")
		rate     = flag.Float64("submit-rate", 0, "submissions per second before 429 (0 = unlimited)")

		stall       = flag.Duration("watchdog-stall", 0, "fail a running job reporting no progress for this long (0 = disabled)")
		maxAttempts = flag.Int("max-attempts", def.maxAttempts, "quarantine a job after this many crash-interrupted attempts (0 = never)")
		retain      = flag.Duration("retain", 0, "remove terminal jobs' directories this long after they finish (0 = keep forever)")

		sseKeepalive = flag.Duration("sse-keepalive", def.sseKeepalive, "idle keepalive period on SSE streams (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", def.drainTimeout, "graceful HTTP drain bound on shutdown")
	)
	flag.Parse()

	cfg := def
	cfg.workers = *workers
	cfg.ckptEvery = *ckptEvery
	cfg.maxQueue = *maxQueue
	cfg.maxBody = *maxBody
	cfg.memWatermark = uint64(*memWM) << 20
	cfg.submitRate = *rate
	cfg.watchdogStall = *stall
	cfg.maxAttempts = *maxAttempts
	cfg.retain = *retain
	cfg.sseKeepalive = *sseKeepalive
	cfg.drainTimeout = *drainTimeout

	if err := run(*addr, *dataDir, *threads, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "complxd:", err)
		os.Exit(1)
	}
}

func run(addr, dataDir string, threads int, cfg config) error {
	complx.SetThreads(threads)

	st, err := newStore(dataDir)
	if err != nil {
		return fmt.Errorf("job store: %w", err)
	}
	hub := complx.NewObsHub()
	sched := newScheduler(st, hub, cfg)
	if err := sched.Recover(); err != nil {
		return fmt.Errorf("recover jobs: %w", err)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	draining := &atomic.Bool{}
	srv := &http.Server{Handler: newServer(sched, hub, cfg, draining).handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// The line tests and scripts wait for; keep the format stable.
	log.Printf("complxd: listening on %s (workers=%d, data=%s)", ln.Addr(), cfg.workers, dataDir)
	// Start running jobs only once the address is out: a recovered job that
	// kills the process must not do so before the server has announced it.
	sched.Start()

	select {
	case err := <-errc:
		sched.Stop()
		return err
	case <-ctx.Done():
	}
	// Graceful drain: flip /readyz to 503 first so load balancers stop
	// routing here, stop accepting, cancel running jobs cooperatively
	// (checkpoints make the interruption recoverable) and exit.
	log.Printf("complxd: shutting down")
	draining.Store(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	srv.Shutdown(shutdownCtx) //nolint:errcheck // drain is best-effort
	sched.Stop()
	return nil
}

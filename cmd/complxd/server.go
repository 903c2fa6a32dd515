package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"complx"
	"complx/internal/faultinject"
	"complx/internal/obs"
	"complx/internal/perr"
)

// server is the HTTP surface of the daemon:
//
//	POST /jobs               submit a JobSpec, returns the queued record (201)
//	GET  /jobs               list all job records
//	GET  /jobs/{id}          one job record
//	POST /jobs/{id}/cancel   cancel a queued or running job
//	GET  /jobs/{id}/result   the finished job's result (409 while unfinished)
//	GET  /jobs/{id}/events   SSE per-iteration progress stream
//	GET  /obs/{id}/...       the job's own observability surface (hub route)
//	GET  /metrics            daemon metrics + per-job metrics, job="<id>" labels
//	GET  /status             scheduler counts + per-job live status
//	GET  /healthz            liveness probe (200 as long as the process serves)
//	GET  /readyz             readiness probe (503 the moment a drain begins)
//
// Errors are structured JSON: {"error": {"stage", "message",
// "retry_after_seconds"}} — see errors.go for the mapping.
type server struct {
	sched    *scheduler
	hub      *complx.ObsHub
	cfg      config
	draining *atomic.Bool // set by main before the HTTP drain starts
	start    time.Time
}

func newServer(sched *scheduler, hub *complx.ObsHub, cfg config, draining *atomic.Bool) *server {
	if draining == nil {
		draining = &atomic.Bool{}
	}
	return &server{sched: sched, hub: hub, cfg: cfg, draining: draining, start: time.Now()}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.Handle("/obs/", http.StripPrefix("/obs", s.hub.Handler()))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// One exposition: the daemon-level series (unlabeled) first, then the
		// per-job series under job="<id>" labels.
		srcs := append([]obs.Source{{Reg: s.sched.dobs.Metrics()}}, s.hub.Sources()...)
		obs.WritePrometheus(w, srcs...) //nolint:errcheck // best-effort over HTTP
	})
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

// handleReady is the readiness probe: it flips to 503 the moment a drain
// begins, so load balancers stop routing new submissions while in-flight
// requests finish within the -drain-timeout window.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, &apiError{
			code:       http.StatusServiceUnavailable,
			stage:      perr.StageAdmission,
			retryAfter: s.cfg.retryAfter,
			err:        errors.New("draining"),
		})
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.cfg.maxBody > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBody)
	}
	spec, err := decodeSpec(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, &apiError{
				code:  http.StatusRequestEntityTooLarge,
				stage: perr.StageAdmission,
				err:   fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit),
			})
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	j, err := s.sched.Submit(spec)
	if err != nil {
		// Admission rejections carry their own 503/429 + Retry-After via
		// *apiError; anything else is a spec validation error.
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, j)
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.List())
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.sched.Get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %s", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.sched.Cancel(r.PathValue("id")); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancelling"})
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.sched.Get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %s", r.PathValue("id")))
		return
	}
	switch j.State {
	case StateDone, StateCancelled:
		if j.Result == nil {
			writeError(w, http.StatusConflict, fmt.Errorf("job %s %s without result", j.ID, j.State))
			return
		}
		writeJSON(w, http.StatusOK, j.Result)
	case StateFailed, StateQuarantined:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s %s: %s", j.ID, j.State, j.Error))
	default:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s", j.ID, j.State))
	}
}

// handleEvents streams per-iteration progress as Server-Sent Events: one
// `iter` event per recorded global-placement iteration (JSON IterStats
// payload), then a final `done` event with the job record. The response is
// flushed immediately on connect (a `: connected` comment), and while the
// job is quiet the stream carries `: keepalive` comment frames every
// cfg.sseKeepalive so intermediaries do not drop it. Subscribing to a
// queued job waits for it to start; subscribing to a finished job replays
// nothing and closes with `done` immediately.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ri := s.sched.Runtime(id)
	if ri == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %s", id))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Flush headers plus a comment frame immediately, so clients (and
	// buffering proxies) see the stream is live before the first iteration.
	fmt.Fprintf(w, ": connected %s\n\n", id)
	fl.Flush()

	var keepalive <-chan time.Time
	if s.cfg.sseKeepalive > 0 {
		t := time.NewTicker(s.cfg.sseKeepalive)
		defer t.Stop()
		keepalive = t.C
	}

	next := 0
	for {
		samples, final, changed := ri.snapshot(next)
		if len(samples) > 0 {
			if err := faultinject.FireErr(faultinject.SSEWrite, id); err != nil {
				return // injected stream failure: drop the subscriber
			}
		}
		for _, sm := range samples {
			data, err := json.Marshal(sm)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: iter\ndata: %s\n\n", data)
		}
		next += len(samples)
		if len(samples) > 0 {
			fl.Flush()
		}
		if final {
			data, _ := json.Marshal(s.sched.Get(id))
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
			fl.Flush()
			return
		}
		select {
		case <-changed:
		case <-keepalive:
			if err := faultinject.FireErr(faultinject.SSEWrite, id); err != nil {
				return
			}
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// statusView is the /status payload. The per-job statuses include each
// run's spans_dropped count, so truncated traces are visible fleet-wide.
type statusView struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	Queued        int     `json:"queued"`
	QueueCapacity int     `json:"queue_capacity"`
	Running       int     `json:"running"`
	Quarantined   int     `json:"quarantined"`
	IntakePaused  bool    `json:"intake_paused"`
	Draining      bool    `json:"draining"`
	Goroutines    int     `json:"goroutines"`
	HeapAllocMB   float64 `json:"heap_alloc_mb"`

	Jobs map[string]complx.RunStatus `json:"jobs"`
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	queued, running := s.sched.Counts()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeJSON(w, http.StatusOK, statusView{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.sched.cfg.workers,
		Queued:        queued,
		QueueCapacity: s.sched.cfg.maxQueue,
		Running:       running,
		Quarantined:   s.sched.Quarantined(),
		IntakePaused:  s.sched.adm.paused.Load(),
		Draining:      s.draining.Load(),
		Goroutines:    runtime.NumGoroutine(),
		HeapAllocMB:   float64(ms.HeapAlloc) / (1 << 20),
		Jobs:          s.hub.Statuses(),
	})
}

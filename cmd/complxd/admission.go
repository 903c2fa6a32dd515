package main

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"complx/internal/perr"
)

// admission is the daemon's overload valve (DESIGN.md §15.1). Three
// independent gates run in front of the queue:
//
//   - a queue-depth cap: a full queue answers 503 + Retry-After instead of
//     accepting unbounded work;
//   - a memory watermark: a monitor goroutine (scheduler.memMonitor)
//     samples the heap and flips `paused` while it exceeds the watermark,
//     so intake stops — and queued work is shed — before the kernel's OOM
//     killer stops it for us;
//   - a token-bucket submission rate limit (429 on excess), for clients
//     that retry without backoff.
//
// Every rejection increments complx_admission_rejected_total and returns a
// structured stage-"admission" error body.
type admission struct {
	maxQueue   int
	retryAfter int

	watermark atomic.Uint64 // heap bytes; 0 = disabled
	paused    atomic.Bool   // set by the memory monitor while over watermark

	mu     sync.Mutex // guards the token bucket
	rate   float64    // tokens per second; 0 = unlimited
	burst  float64
	tokens float64
	last   time.Time
}

func newAdmission(cfg config) *admission {
	a := &admission{
		maxQueue:   cfg.maxQueue,
		retryAfter: cfg.retryAfter,
		rate:       cfg.submitRate,
		burst:      cfg.submitBurst,
		last:       time.Now(),
	}
	if a.burst < 1 {
		a.burst = 1
	}
	a.tokens = a.burst
	a.watermark.Store(cfg.memWatermark)
	return a
}

// reject builds the structured overload error for one gate.
func (a *admission) reject(code int, format string, args ...any) *apiError {
	return &apiError{
		code:       code,
		stage:      perr.StageAdmission,
		retryAfter: a.retryAfter,
		err:        fmt.Errorf(format, args...),
	}
}

// admit decides whether one submission may enter a queue currently holding
// `queued` jobs. Returns nil to admit or an *apiError describing the gate
// that refused. Called with the scheduler lock held, so the depth check is
// race-free against dispatch.
func (a *admission) admit(queued int) error {
	if a.paused.Load() {
		return a.reject(http.StatusServiceUnavailable,
			"intake paused: heap above the %d MiB memory watermark", a.watermark.Load()>>20)
	}
	if a.maxQueue > 0 && queued >= a.maxQueue {
		return a.reject(http.StatusServiceUnavailable,
			"queue full: %d jobs queued (cap %d)", queued, a.maxQueue)
	}
	if !a.allowRate() {
		return a.reject(http.StatusTooManyRequests,
			"submission rate limit: %.3g jobs/s (burst %.0f)", a.rate, a.burst)
	}
	return nil
}

// allowRate takes one token from the bucket, refilling by elapsed time.
func (a *admission) allowRate() bool {
	if a.rate <= 0 {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	a.tokens += now.Sub(a.last).Seconds() * a.rate
	a.last = now
	if a.tokens > a.burst {
		a.tokens = a.burst
	}
	if a.tokens < 1 {
		return false
	}
	a.tokens--
	return true
}

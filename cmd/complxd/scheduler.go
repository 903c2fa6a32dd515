package main

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"complx"
	"complx/internal/faultinject"
	"complx/internal/obs"
	"complx/internal/perr"
	"complx/internal/resilience"
)

// jobHeap orders queued jobs by priority (higher first), then submission
// sequence (FIFO within a priority).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(a, b int) bool {
	if h[a].Spec.Priority != h[b].Spec.Priority {
		return h[a].Spec.Priority > h[b].Spec.Priority
	}
	return h[a].Seq < h[b].Seq
}
func (h jobHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any     { old := *h; n := len(old); j := old[n-1]; *h = old[:n-1]; return j }

// Cancellation causes. Each way a running job's context can be cancelled
// carries its own cause, so runJob can map the outcome to the right
// terminal state: a user cancel ends cancelled, a drain leaves the job
// re-queued and resumable, and governance causes (deadline, watchdog —
// built per job so the message can carry the limits) end failed.
var (
	errUserCancel = errors.New("cancelled by request")
	errShutdown   = errors.New("server shutting down")
)

// runtimeInfo is the in-memory side of a job: live iteration samples for
// SSE subscribers and, while running, the cause-carrying cancel hook.
type runtimeInfo struct {
	mu      sync.Mutex
	samples []complx.IterStats
	changed chan struct{} // closed-and-replaced on every append / state change
	cancel  context.CancelCauseFunc
	final   bool
}

func newRuntimeInfo() *runtimeInfo {
	return &runtimeInfo{changed: make(chan struct{})}
}

// appendSample records one iteration and wakes SSE subscribers.
func (ri *runtimeInfo) appendSample(s complx.IterStats) {
	ri.mu.Lock()
	ri.samples = append(ri.samples, s)
	ch := ri.changed
	ri.changed = make(chan struct{})
	ri.mu.Unlock()
	close(ch)
}

// finish marks the stream complete and wakes subscribers one last time.
func (ri *runtimeInfo) finish() {
	ri.mu.Lock()
	ri.final = true
	ch := ri.changed
	ri.changed = make(chan struct{})
	ri.mu.Unlock()
	close(ch)
}

// cancelCause invokes the job's cancel hook with the given cause, if the
// job is currently running.
func (ri *runtimeInfo) cancelCause(cause error) {
	ri.mu.Lock()
	cancel := ri.cancel
	ri.mu.Unlock()
	if cancel != nil {
		cancel(cause)
	}
}

// snapshot returns the samples recorded so far, whether the stream is
// complete, and a channel that closes on the next change.
func (ri *runtimeInfo) snapshot(from int) ([]complx.IterStats, bool, <-chan struct{}) {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	if from > len(ri.samples) {
		from = len(ri.samples)
	}
	out := append([]complx.IterStats(nil), ri.samples[from:]...)
	return out, ri.final, ri.changed
}

// scheduler owns the queue, the worker pool, the per-job runtime state and
// the hardening machinery around them: admission control, the memory
// watermark monitor, the progress watchdog, the crash-loop quarantine
// breaker and the terminal-job retention janitor (DESIGN.md §15).
type scheduler struct {
	store *store
	hub   *complx.ObsHub
	cfg   config
	adm   *admission
	// dobs is the daemon-level observer: process-wide counters and gauges
	// (queue depth, quarantines, admission rejections, watchdog activity)
	// served unlabeled on /metrics next to the hub's per-job series.
	dobs *complx.Observer

	mu       sync.Mutex
	cond     *sync.Cond
	queue    jobHeap
	jobs     map[string]*Job         // every job this server knows, by ID
	runtimes map[string]*runtimeInfo // live SSE/cancel state, by ID
	running  int
	closed   bool

	done chan struct{} // closed on Stop; ends the monitor goroutines
	wg   sync.WaitGroup
}

func newScheduler(st *store, hub *complx.ObsHub, cfg config) *scheduler {
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	s := &scheduler{
		store:    st,
		hub:      hub,
		cfg:      cfg,
		adm:      newAdmission(cfg),
		dobs:     complx.NewObserver(),
		jobs:     map[string]*Job{},
		runtimes: map[string]*runtimeInfo{},
		done:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// queueGaugeLocked publishes the live queue depth; callers hold s.mu.
func (s *scheduler) queueGaugeLocked() {
	s.dobs.SetGauge(obs.MetricQueueDepth, float64(len(s.queue)))
}

// quarantineLocked parks j with a stage-"quarantine" error; callers hold
// s.mu and must persist the returned snapshot after unlocking.
func (s *scheduler) quarantineLocked(j *Job, reason string) Job {
	now := time.Now().UTC()
	j.State = StateQuarantined
	j.Finished = &now
	j.Error = perr.New(perr.StageQuarantine,
		"crash-loop breaker: %s after %d interrupted attempts (cap %d)",
		reason, j.Attempts, s.cfg.maxAttempts).Error()
	s.dobs.AddCount(obs.MetricJobsQuarantined, 1)
	return *j
}

// Recover loads every persisted job and re-queues the unfinished ones. A
// job that was running when the previous server died goes back to queued —
// its checkpoint directory lets the placement resume mid-flight — unless
// its attempts already reached the quarantine cap: then the crash-loop
// breaker quarantines it instead of letting it take this server down too.
// Unreadable job records are skipped with a logged warning and counted in
// complx_recover_corrupt_total, never fatal to startup.
func (s *scheduler) Recover() error {
	jobs, err := s.store.LoadAll()
	if err != nil {
		return err
	}
	s.dobs.AddCount(obs.MetricRecoverCorrupt, float64(s.store.CorruptSkipped()))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range jobs {
		s.jobs[j.ID] = j
		switch j.State {
		case StateQueued:
			heap.Push(&s.queue, j)
		case StateRunning:
			if s.cfg.maxAttempts > 0 && j.Attempts >= s.cfg.maxAttempts {
				cp := s.quarantineLocked(j, "interrupted again while running")
				if err := s.store.Save(&cp); err != nil {
					log.Printf("job %s: persist quarantined state: %v", cp.ID, err)
				}
				log.Printf("quarantined job %s: %s", j.ID, j.Error)
				continue
			}
			j.State = StateQueued
			if err := s.store.Save(j); err != nil {
				return err
			}
			heap.Push(&s.queue, j)
			log.Printf("recovered in-flight job %s (attempt %d); will resume from checkpoint",
				j.ID, j.Attempts)
		}
	}
	s.queueGaugeLocked()
	s.cond.Broadcast()
	return nil
}

// Start launches the worker pool and, when configured, the memory-watermark
// monitor and the retention janitor.
func (s *scheduler) Start() {
	for i := 0; i < s.cfg.workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.workerLoop()
		}()
	}
	if s.cfg.memPoll > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.memMonitor()
		}()
	}
	if s.cfg.retain > 0 && s.cfg.gcEvery > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.janitor()
		}()
	}
}

// Stop drains the pool: running jobs are cancelled cooperatively with the
// shutdown cause — so they are re-queued resumable, not marked terminal —
// and the workers and monitors exit.
func (s *scheduler) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.done)
	rts := make([]*runtimeInfo, 0, len(s.runtimes))
	for _, ri := range s.runtimes {
		rts = append(rts, ri)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, ri := range rts {
		ri.cancelCause(errShutdown)
	}
	s.wg.Wait()
}

// Submit validates, admits, persists and enqueues a new job.
func (s *scheduler) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Admission runs under the scheduler lock so the depth check cannot
	// race concurrent submissions past the cap.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, s.adm.reject(503, "server draining")
	}
	if err := s.adm.admit(len(s.queue)); err != nil {
		s.mu.Unlock()
		s.dobs.AddCount(obs.MetricAdmissionRejected, 1)
		return nil, err
	}
	s.mu.Unlock()

	j, err := s.store.NewJob(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.jobs[j.ID] = j
	heap.Push(&s.queue, j)
	s.queueGaugeLocked()
	cp := *j
	s.cond.Signal()
	s.mu.Unlock()
	return &cp, nil
}

// update mutates a shared job record under the scheduler lock, persists a
// snapshot and returns it. Handlers only ever see snapshots, so workers may
// keep mutating the canonical record without racing the JSON encoders.
func (s *scheduler) update(j *Job, fn func(*Job)) *Job {
	s.mu.Lock()
	fn(j)
	cp := *j
	s.mu.Unlock()
	if err := s.store.Save(&cp); err != nil {
		log.Printf("job %s: persist %s state: %v", cp.ID, cp.State, err)
	}
	return &cp
}

// Get returns a copy of the job record, or nil.
func (s *scheduler) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil
	}
	cp := *j
	return &cp
}

// List returns copies of all known jobs in submission order.
func (s *scheduler) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		cp := *j
		out = append(out, &cp)
	}
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].Seq < out[k-1].Seq; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// Runtime returns the job's live runtime info, creating it if needed (so a
// subscriber can attach before the job starts).
func (s *scheduler) Runtime(id string) *runtimeInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok {
		return nil
	}
	ri, ok := s.runtimes[id]
	if !ok {
		ri = newRuntimeInfo()
		s.runtimes[id] = ri
		if j := s.jobs[id]; j.State.Terminal() {
			ri.final = true
		}
	}
	return ri
}

// Cancel cancels a queued or running job. Cancelling a queued job is
// immediate; a running job stops cooperatively at the next solver check and
// keeps its best placement.
func (s *scheduler) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return &apiError{code: 404, err: fmt.Errorf("unknown job %s", id)}
	}
	switch j.State {
	case StateQueued:
		j.State = StateCancelled
		now := time.Now().UTC()
		j.Finished = &now
		cp := *j
		ri := s.runtimes[id]
		s.mu.Unlock()
		err := s.store.Save(&cp)
		if ri != nil {
			ri.finish()
		}
		return err
	case StateRunning:
		ri := s.runtimes[id]
		s.mu.Unlock()
		if ri != nil {
			ri.cancelCause(errUserCancel)
		}
		return nil
	default:
		s.mu.Unlock()
		return &apiError{code: 409, err: fmt.Errorf("job %s already %s", id, j.State)}
	}
}

// Counts reports queue depth and running jobs for /status.
func (s *scheduler) Counts() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.running
}

// Quarantined counts quarantined jobs for /status.
func (s *scheduler) Quarantined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.State == StateQuarantined {
			n++
		}
	}
	return n
}

// workerLoop pops jobs until the scheduler closes.
func (s *scheduler) workerLoop() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*Job)
		s.queueGaugeLocked()
		if j.State != StateQueued {
			// Cancelled (or shed) while queued; the heap entry is stale.
			s.mu.Unlock()
			continue
		}
		if err := faultinject.FireErr(faultinject.WorkerStart, j.ID); err != nil {
			// Injected dispatch failure: re-queue without consuming an
			// attempt (rule budgets bound the number of firings).
			heap.Push(&s.queue, j)
			s.queueGaugeLocked()
			s.mu.Unlock()
			continue
		}
		if s.cfg.maxAttempts > 0 && j.Attempts >= s.cfg.maxAttempts {
			// Defensive arm of the crash-loop breaker: never dispatch past
			// the attempt cap, however the job got back into the queue.
			cp := s.quarantineLocked(j, "attempt cap reached at dispatch")
			s.mu.Unlock()
			if err := s.store.Save(&cp); err != nil {
				log.Printf("job %s: persist quarantined state: %v", cp.ID, err)
			}
			if ri := s.Runtime(cp.ID); ri != nil {
				ri.finish()
			}
			continue
		}
		now := time.Now().UTC()
		j.State = StateRunning
		j.Started = &now
		j.Attempts++
		s.running++
		cp := *j
		ri, ok := s.runtimes[j.ID]
		if !ok {
			ri = newRuntimeInfo()
			s.runtimes[j.ID] = ri
		}
		s.mu.Unlock()
		if err := s.store.Save(&cp); err != nil {
			log.Printf("job %s: persist running state: %v", j.ID, err)
		}

		s.runJob(j, ri)

		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// runJob executes one placement under the job's governance envelope —
// deadline, progress watchdog, panic isolation — and persists the outcome.
func (s *scheduler) runJob(j *Job, ri *runtimeInfo) {
	base, cancel := context.WithCancelCause(context.Background())
	ctx := context.Context(base)
	defer cancel(nil)

	// Per-job deadline, enforced through the same cancellable context the
	// solvers already observe. The cause carries the stage-"deadline"
	// error verbatim into the job record.
	var deadlineErr error
	// Deadlines past the Duration range (~292 years) mean "unbounded", not
	// an instant overflow-to-negative timeout.
	if d := j.Spec.DeadlineSeconds; d > 0 && d < float64(math.MaxInt64)/float64(time.Second) {
		deadlineErr = perr.New(perr.StageDeadline, "job deadline (%gs) exceeded", d)
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeoutCause(ctx, time.Duration(d*float64(time.Second)), deadlineErr)
		defer tcancel()
	}

	// Progress watchdog: fed by the engine's per-iteration callback; a
	// stall cancels the run with a stage-"watchdog" cause.
	watchdogErr := perr.New(perr.StageWatchdog,
		"no progress for %s; job cancelled by the watchdog", s.cfg.watchdogStall)
	wd := resilience.NewWatchdog(s.cfg.watchdogStall, func() {
		s.dobs.AddCount(obs.MetricWatchdogCancels, 1)
		cancel(watchdogErr)
	})
	releaseWatchdog := func() {}
	if wd != nil {
		g := s.dobs.Gauge(obs.MetricWatchdogActive)
		g.Set(g.Value() + 1)
		releaseWatchdog = func() {
			wd.Stop()
			g.Set(g.Value() - 1)
		}
	}
	onIter := func(st complx.IterStats) {
		wd.Touch()
		ri.appendSample(st)
	}

	ri.mu.Lock()
	ri.cancel = cancel
	ri.mu.Unlock()
	// A drain that began between dispatch and the line above found no
	// cancel to call; honour it now so the job is re-queued, not run out.
	select {
	case <-s.done:
		cancel(errShutdown)
	default:
	}
	defer func() {
		ri.mu.Lock()
		ri.cancel = nil
		ri.mu.Unlock()
	}()

	observer := complx.NewObserver()
	s.hub.Register(j.ID, observer)

	res, err := s.safePlacement(ctx, j, observer, onIter)
	// Release the watchdog before the job's next state is published, so a
	// client that sees the job finished also sees it unwatched.
	releaseWatchdog()
	cause := context.Cause(ctx)

	if errors.Is(cause, errShutdown) && err == nil && (res == nil || res.Cancelled) {
		// Graceful drain: leave the job resumable instead of terminal. The
		// attempt is handed back so only crash-interrupted dispatches count
		// toward the quarantine cap — a daemon restarted gracefully N times
		// must never quarantine an innocent long job.
		s.update(j, func(j *Job) {
			j.State = StateQueued
			j.Started = nil
			j.Attempts--
		})
		ri.finish()
		log.Printf("job %s re-queued by drain; will resume from checkpoint", j.ID)
		return
	}

	var summary *obs.FinalStats
	if res != nil {
		f := res.Summary()
		summary = &f
	}
	s.update(j, func(j *Job) {
		now := time.Now().UTC()
		j.Finished = &now
		switch {
		case cause != nil && (cause == deadlineErr || cause == watchdogErr):
			// Governance cut the run short: the job failed, but the
			// best-so-far placement (when one exists) stays attached.
			j.State = StateFailed
			j.Error = cause.Error()
			j.Result = summary
		case res != nil && res.Cancelled:
			j.State = StateCancelled
			j.Result = summary
			if err != nil {
				j.Error = err.Error()
			}
		case err != nil:
			j.State = StateFailed
			j.Error = err.Error()
		default:
			j.State = StateDone
			j.Result = summary
		}
	})
	ri.finish()
}

// safePlacement isolates worker panics: a panicking job fails with a
// stage-"panic" *PlaceError carrying the stack, instead of taking the
// daemon (and every other tenant's job) down with it. Panics on auxiliary
// kernel goroutines are out of scope — those indicate bugs the fuzzers and
// the panic-free pipeline contract (DESIGN.md §7) exist to prevent.
func (s *scheduler) safePlacement(ctx context.Context, j *Job,
	observer *complx.Observer, onIter func(complx.IterStats)) (res *complx.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.dobs.AddCount(obs.MetricJobPanics, 1)
			res, err = nil, perr.New(perr.StagePanic, "worker panic: %v\n%s", r, debug.Stack())
			log.Printf("job %s: %v", j.ID, err)
		}
	}()
	return runPlacement(ctx, j, s.store.CheckpointDir(j.ID), s.cfg.ckptEvery, observer, onIter)
}

// memMonitor samples the heap at cfg.memPoll. While it exceeds the
// watermark, intake is paused (submissions get 503) and one lowest-priority
// queued job is shed per sample, so the daemon degrades before the
// kernel's OOM killer makes the decision for it.
func (s *scheduler) memMonitor() {
	t := time.NewTicker(s.cfg.memPoll)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
		}
		wm := s.adm.watermark.Load()
		if wm == 0 {
			if s.adm.paused.Swap(false) {
				s.dobs.SetGauge(obs.MetricIntakePaused, 0)
			}
			continue
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		over := ms.HeapAlloc > wm
		if s.adm.paused.Swap(over) != over {
			s.dobs.SetGauge(obs.MetricIntakePaused, b2f(over))
			if over {
				log.Printf("complxd: heap %d MiB above watermark %d MiB; intake paused",
					ms.HeapAlloc>>20, wm>>20)
			} else {
				log.Printf("complxd: heap back under watermark; intake resumed")
			}
		}
		if over {
			s.shedLowestPriority(ms.HeapAlloc, wm)
		}
	}
}

// shedLowestPriority fails the least important queued job under memory
// pressure (lowest priority, newest submission breaking ties). Running
// jobs are never shed — their checkpoints make cancellation wasteful and
// their memory is already committed.
func (s *scheduler) shedLowestPriority(heapAlloc, wm uint64) {
	s.mu.Lock()
	victim := -1
	for i, j := range s.queue {
		if victim < 0 {
			victim = i
			continue
		}
		v := s.queue[victim]
		if j.Spec.Priority < v.Spec.Priority ||
			(j.Spec.Priority == v.Spec.Priority && j.Seq > v.Seq) {
			victim = i
		}
	}
	if victim < 0 {
		s.mu.Unlock()
		return
	}
	j := heap.Remove(&s.queue, victim).(*Job)
	now := time.Now().UTC()
	j.State = StateFailed
	j.Finished = &now
	j.Error = perr.New(perr.StageAdmission,
		"shed while queued: heap %d MiB above the %d MiB watermark", heapAlloc>>20, wm>>20).Error()
	cp := *j
	ri := s.runtimes[j.ID]
	s.queueGaugeLocked()
	s.dobs.AddCount(obs.MetricJobsShed, 1)
	s.mu.Unlock()
	if err := s.store.Save(&cp); err != nil {
		log.Printf("job %s: persist shed state: %v", cp.ID, err)
	}
	if ri != nil {
		ri.finish()
	}
	log.Printf("shed queued job %s (priority %d) under memory pressure", cp.ID, cp.Spec.Priority)
}

// janitor removes terminal jobs' directories cfg.retain after they
// finished, bounding the store's disk (and the daemon's per-job state)
// under sustained load.
func (s *scheduler) janitor() {
	t := time.NewTicker(s.cfg.gcEvery)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.gcOnce(time.Now().Add(-s.cfg.retain))
		}
	}
}

// gcOnce collects every terminal job finished before cutoff.
func (s *scheduler) gcOnce(cutoff time.Time) {
	s.mu.Lock()
	var victims []*Job
	for id, j := range s.jobs {
		if j.State.Terminal() && j.Finished != nil && j.Finished.Before(cutoff) {
			victims = append(victims, j)
			delete(s.jobs, id)
			delete(s.runtimes, id)
		}
	}
	s.mu.Unlock()
	for _, j := range victims {
		if err := os.RemoveAll(s.store.jobDir(j.ID)); err != nil {
			log.Printf("job %s: gc: %v", j.ID, err)
		}
		s.hub.Unregister(j.ID)
		s.dobs.AddCount(obs.MetricJobsGCed, 1)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// runPlacement builds the netlist and runs the flow for one job.
func runPlacement(ctx context.Context, j *Job, ckptDir string, ckptEach int,
	observer *complx.Observer, onIter func(complx.IterStats)) (*complx.Result, error) {
	nl, target, err := buildNetlist(j.Spec)
	if err != nil {
		return nil, err
	}
	opt, err := j.Spec.options()
	if err != nil {
		return nil, err
	}
	if opt.TargetDensity <= 0 {
		opt.TargetDensity = target
	}
	opt.Observer = observer
	opt.OnIteration = onIter
	opt.Checkpoint = complx.CheckpointOptions{
		Dir:      ckptDir,
		Interval: ckptEach,
		Resume:   true, // a fresh job has no snapshot; a re-queued one resumes
	}
	res, err := complx.PlaceContext(ctx, nl, opt)
	if res != nil && res.Cancelled {
		// Cooperative cancellation still returns a usable placement; report
		// it as cancelled, not failed.
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return res, err
		}
		return res, nil
	}
	return res, err
}

// buildNetlist materializes the job's input design.
func buildNetlist(spec JobSpec) (*complx.Netlist, float64, error) {
	var bs complx.BenchSpec
	if spec.Gen != nil {
		bs = *spec.Gen
	} else {
		var ok bool
		bs, ok = complx.BenchmarkByName(spec.Bench)
		if !ok {
			return nil, 0, fmt.Errorf("unknown benchmark %q", spec.Bench)
		}
		if spec.Scale != 0 && spec.Scale != 1.0 {
			bs = complx.ScaleBenchmark(bs, spec.Scale)
		}
	}
	target := bs.TargetDensity
	nl, err := complx.Generate(bs)
	if err != nil {
		return nil, 0, err
	}
	return nl, target, nil
}

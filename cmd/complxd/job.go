package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"complx"
	"complx/internal/faultinject"
	"complx/internal/fsatomic"
	"complx/internal/obs"
)

// JobState is a job's position in the lifecycle. Transitions are
// queued → running → {done, failed, cancelled}; a running job whose server
// dies is re-queued on restart and resumes from its checkpoint — unless its
// attempts have reached the quarantine cap, in which case the crash-loop
// breaker parks it in quarantined instead of re-running it (DESIGN.md §15).
type JobState string

const (
	StateQueued      JobState = "queued"
	StateRunning     JobState = "running"
	StateDone        JobState = "done"
	StateFailed      JobState = "failed"
	StateCancelled   JobState = "cancelled"
	StateQuarantined JobState = "quarantined"
)

// Terminal reports whether the state is final: the job will never run
// again and its record/result are immutable from here on.
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateQuarantined:
		return true
	}
	return false
}

// JobSpec is the client-supplied description of one placement job.
type JobSpec struct {
	// Bench names a synthetic benchmark (e.g. "adaptec1"); Scale optionally
	// shrinks it. Exactly one input form is required: Bench, or an inline
	// synthetic design via Gen.
	Bench string  `json:"bench,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	// Gen generates a custom synthetic design instead of a named benchmark.
	Gen *complx.BenchSpec `json:"gen,omitempty"`

	// Algorithm is "complx" (default) or "simpl".
	Algorithm     string  `json:"algorithm,omitempty"`
	TargetDensity float64 `json:"target_density,omitempty"`
	MaxIterations int     `json:"max_iterations,omitempty"`
	Precond       string  `json:"precond,omitempty"`
	SkipLegalize  bool    `json:"skip_legalize,omitempty"`
	SkipDetailed  bool    `json:"skip_detailed,omitempty"`

	// Multilevel runs the V-cycle (complx.Options.Multilevel) with the
	// given knobs; zero knobs select the driver defaults. ComPLx and SimPL
	// only.
	Multilevel    bool `json:"multilevel,omitempty"`
	MLTargetCells int  `json:"ml_target_cells,omitempty"`
	MLMaxLevels   int  `json:"ml_max_levels,omitempty"`
	MLRefineIters int  `json:"ml_refine_iters,omitempty"`

	// Threads caps the parallel-kernel helpers this job may occupy
	// (complx.Options.Threads); 0 leaves the job uncapped up to the
	// process-wide pool. Budgets only change scheduling, never results.
	Threads int `json:"threads,omitempty"`
	// Priority orders dispatch: higher runs first; equal priorities run in
	// submission order (FIFO). Under memory pressure the watermark monitor
	// sheds queued jobs lowest-priority-first.
	Priority int `json:"priority,omitempty"`
	// DeadlineSeconds bounds the job's wall-clock once it starts running;
	// past it the run is cancelled cooperatively and the job fails with a
	// stage-"deadline" error (best-so-far result attached when one
	// exists). 0 = no deadline.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
}

// decodeSpec decodes a submitted job spec. A field JobSpec does not know
// is an error, so a misspelled or retired knob fails the submission
// instead of silently running the job at its defaults. Persisted job
// records are decoded leniently by store.Load.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var s JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&s)
	return s, err
}

// Validate rejects specs the scheduler could not run.
func (s *JobSpec) Validate() error {
	if (s.Bench == "") == (s.Gen == nil) {
		return fmt.Errorf("exactly one of bench or gen is required")
	}
	if s.Bench != "" {
		if _, ok := complx.BenchmarkByName(s.Bench); !ok {
			return fmt.Errorf("unknown benchmark %q", s.Bench)
		}
	}
	if s.Scale < 0 {
		return fmt.Errorf("scale must be >= 0")
	}
	if s.Threads < 0 {
		return fmt.Errorf("threads must be >= 0")
	}
	if s.DeadlineSeconds < 0 {
		return fmt.Errorf("deadline_seconds must be >= 0")
	}
	opt, err := s.options()
	if err != nil {
		return err
	}
	return opt.Validate()
}

// options maps the spec onto the facade options the job runs with. The
// scheduler adds the run's observer, checkpoint directory and the design's
// own target density when the spec sets none.
func (s *JobSpec) options() (complx.Options, error) {
	alg := complx.AlgComPLx
	if s.Algorithm != "" {
		var err error
		if alg, err = complx.ParseAlgorithm(s.Algorithm); err != nil {
			return complx.Options{}, err
		}
	}
	return complx.Options{
		Algorithm:     alg,
		TargetDensity: s.TargetDensity,
		MaxIterations: s.MaxIterations,
		Precond:       s.Precond,
		SkipLegalize:  s.SkipLegalize,
		SkipDetailed:  s.SkipDetailed,
		Multilevel: complx.MultilevelOptions{
			Enabled:     s.Multilevel,
			TargetCells: s.MLTargetCells,
			MaxLevels:   s.MLMaxLevels,
			RefineIters: s.MLRefineIters,
		},
		Threads: s.Threads,
	}, nil
}

// Job is one persisted job record: the spec, the lifecycle state, and the
// result or error once finished. The record is the durable unit — it is
// rewritten atomically on every state transition, so a killed server
// recovers the exact queue.
type Job struct {
	ID        string     `json:"id"`
	Seq       int        `json:"seq"`
	Spec      JobSpec    `json:"spec"`
	State     JobState   `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Attempts counts scheduling attempts, incremented on each transition
	// to running; >1 means the job resumed after a server death.
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
	// Result is the run's end-of-run summary (complx.Result.Summary), the
	// same record as the run report's result.
	Result *obs.FinalStats `json:"result,omitempty"`
}

// store persists job records under dir/jobs/<id>/job.json with atomic
// replaces, and allocates monotonically increasing job IDs.
type store struct {
	dir string

	mu      sync.Mutex
	nextSeq int
	// corrupt counts the unreadable job records skipped by the most recent
	// LoadAll — a truncated or invalid job.json is logged and skipped,
	// never fatal to startup (the record stays on disk for forensics).
	corrupt int
}

func newStore(dir string) (*store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	s := &store{dir: dir, nextSeq: 1}
	jobs, err := s.LoadAll()
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if j.Seq >= s.nextSeq {
			s.nextSeq = j.Seq + 1
		}
	}
	// Also advance past unreadable directories, so a new job never reuses —
	// and overwrites — the directory of a record LoadAll skipped as corrupt.
	entries, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "job-%d", &seq); err == nil && seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}
	return s, nil
}

// NewJob allocates an ID, persists the queued record and returns it.
func (s *store) NewJob(spec JobSpec) (*Job, error) {
	s.mu.Lock()
	seq := s.nextSeq
	s.nextSeq++
	s.mu.Unlock()
	j := &Job{
		ID:        fmt.Sprintf("job-%06d", seq),
		Seq:       seq,
		Spec:      spec,
		State:     StateQueued,
		Submitted: time.Now().UTC(),
	}
	if err := s.Save(j); err != nil {
		return nil, err
	}
	return j, nil
}

func (s *store) jobDir(id string) string { return filepath.Join(s.dir, "jobs", id) }

// CheckpointDir is where the job's placement checkpoints live.
func (s *store) CheckpointDir(id string) string { return filepath.Join(s.jobDir(id), "ckpt") }

// Save atomically rewrites the job record.
func (s *store) Save(j *Job) error {
	if err := faultinject.FireErr(faultinject.JobPersist, j.ID); err != nil {
		return err
	}
	dir := s.jobDir(j.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	return fsatomic.WriteFileBytes(filepath.Join(dir, "job.json"), 0o644, data)
}

// Load reads one job record by ID.
func (s *store) Load(id string) (*Job, error) {
	data, err := os.ReadFile(filepath.Join(s.jobDir(id), "job.json"))
	if err != nil {
		return nil, err
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("job %s: corrupt record: %w", id, err)
	}
	return &j, nil
}

// LoadAll reads every job record, sorted by sequence number. Directories
// without a readable record — a crash before the first Save committed, or
// a truncated/corrupted job.json — are skipped with a logged warning and
// counted (CorruptSkipped), never fatal to startup.
func (s *store) LoadAll() ([]*Job, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var jobs []*Job
	corrupt := 0
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "job-") {
			continue
		}
		j, err := s.Load(e.Name())
		if err != nil {
			corrupt++
			log.Printf("complxd: skipping unreadable job record %s: %v", e.Name(), err)
			continue
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Seq < jobs[b].Seq })
	s.mu.Lock()
	s.corrupt = corrupt
	s.mu.Unlock()
	return jobs, nil
}

// CorruptSkipped reports how many unreadable records the last LoadAll
// skipped.
func (s *store) CorruptSkipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corrupt
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"complx"
	"complx/internal/chkpt"
)

// jobSpec is the part of complxd's job spec the benchmark sets.
type jobSpec struct {
	Gen     *complx.BenchSpec `json:"gen"`
	Threads int               `json:"threads"`
}

// jobRecord is the part of complxd's job record the benchmark reads.
type jobRecord struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Error     string     `json:"error"`
	Result    *struct {
		HPWL         float64 `json:"hpwl"`
		ScaledHPWL   float64 `json:"scaled_hpwl"`
		Legalized    bool    `json:"legalized"`
		Detailed     bool    `json:"detailed"`
		Precond      string  `json:"precond"`
		TotalSeconds float64 `json:"total_seconds"`
	} `json:"result"`
}

// jobObs is what a client observed of one job.
type jobObs struct {
	design     int     // index of the design the job placed
	submit     float64 // POST /jobs round trip, seconds
	turnaround float64 // submit to the SSE done event, seconds
	rec        jobRecord
	err        error
}

// check is the correctness gate for one job: it must end done with a
// legalized, detail-placed result on the expected preconditioner.
func (j *jobObs) check(wantPrecond string) error {
	if j.err != nil {
		return j.err
	}
	r := j.rec.Result
	switch {
	case j.rec.State != "done":
		return fmt.Errorf("job %s ended %s: %s", j.rec.ID, j.rec.State, j.rec.Error)
	case r == nil:
		return fmt.Errorf("job %s is done without a result", j.rec.ID)
	case !r.Legalized || !r.Detailed:
		return fmt.Errorf("job %s skipped a stage (legalized=%v detailed=%v)", j.rec.ID, r.Legalized, r.Detailed)
	case !(r.HPWL > 0) || math.IsInf(r.HPWL, 0):
		return fmt.Errorf("job %s reports HPWL %g", j.rec.ID, r.HPWL)
	case wantPrecond != "" && r.Precond != wantPrecond:
		return fmt.Errorf("job %s resolves the %s preconditioner, want %s", j.rec.ID, r.Precond, wantPrecond)
	case j.rec.Started == nil || j.rec.Finished == nil:
		return fmt.Errorf("job %s has no start or finish time", j.rec.ID)
	}
	return nil
}

// daemon is one running complxd process.
type daemon struct {
	cmd        *exec.Cmd
	base       string // http://host:port
	readerDone chan struct{}

	mu   sync.Mutex
	tail []string // last lines of its log, for error reports
}

// startDaemon starts complxd on a free loopback port and waits until
// /readyz answers 200; it returns the daemon and the seconds from start to
// ready.
func startDaemon(ctx context.Context, c *http.Client, bin, dataDir string, workers int) (*daemon, float64, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-workers", strconv.Itoa(workers))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(benchThreads))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, readerDone: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start complxd: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.readerDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
	}()
	fail := func(err error) (*daemon, float64, error) {
		d.stop()
		return nil, 0, fmt.Errorf("%w; complxd log: %s", err, d.log())
	}
	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case <-d.readerDone:
		return fail(errors.New("complxd exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("complxd did not start listening within 30s"))
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		if err != nil {
			return fail(err)
		}
		resp, err := c.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0).Seconds(), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			return fail(fmt.Errorf("complxd not ready within 30s (last error: %v)", err))
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// stop drains the daemon with SIGTERM (SIGKILL after 20s), waits for it to
// exit and returns its peak RSS in MB.
func (d *daemon) stop() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return 0, err
	}
	select {
	case <-d.readerDone:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // already failing; Wait reports the exit
		<-d.readerDone
	}
	err := d.cmd.Wait()
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for complxd")
	}
	if err != nil {
		return peakRSSMB(ru.Maxrss), fmt.Errorf("complxd exited: %w", err)
	}
	return peakRSSMB(ru.Maxrss), nil
}

// place submits one job and follows its SSE stream until the done event.
func (d *daemon) place(ctx context.Context, c *http.Client, spec jobSpec, tr *tracer) jobObs {
	var o jobObs
	t0 := time.Now()
	root := tr.start("complxd.job", spanRef{})
	defer root.end()

	s := tr.start("POST /jobs", root)
	body, err := json.Marshal(spec)
	if err == nil {
		err = d.call(ctx, c, http.MethodPost, "/jobs", body, http.StatusCreated, func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(&o.rec)
		})
	}
	o.submit = s.end()
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}

	s = tr.start("GET /jobs/{id}/events", root)
	err = d.call(ctx, c, http.MethodGet, "/jobs/"+o.rec.ID+"/events", nil, http.StatusOK, func(resp *http.Response) error {
		return awaitDone(resp, &o.rec)
	})
	s.end()
	o.turnaround = time.Since(t0).Seconds()
	if err != nil {
		o.err = fmt.Errorf("job %s events: %w", o.rec.ID, err)
	}
	return o
}

// call makes one request and hands a response with the wanted status to fn.
func (d *daemon) call(ctx context.Context, c *http.Client, method, path string, body []byte, want int,
	fn func(*http.Response) error) error {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := bufio.NewReader(resp.Body).ReadString('\n')
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(msg))
	}
	return fn(resp)
}

// awaitDone reads an SSE stream up to its done event and decodes the job
// record it carries.
func awaitDone(resp *http.Response, rec *jobRecord) error {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			return json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), rec)
		case line == "":
			event = ""
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream ended without a done event")
}

// runJobs runs a service workload: it starts complxd (set-up, repeated),
// then a closed loop of w.clients clients submits jobs, each waiting for
// its job's SSE done event before submitting the next, until the run has
// lasted cfg.seconds and placed every distinct design. It then stops the
// daemon and replays the first w.replays jobs in-process (traced when
// cfg.trace is 1) to check their placements.
func runJobs(ctx context.Context, w workload, cfg config) (*outcome, error) {
	if cfg.complxd == "" {
		return nil, errors.New("jobs workloads need -complxd")
	}
	o := newOutcome(w, cfg)
	specs, err := designSpecs(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	rec, err := newRecord(o, cfg, cfg.complxd)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: w.clients}}
	defer client.CloseIdleConnections()
	var setups []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		dd, ready, err := startDaemon(ctx, client, cfg.complxd, filepath.Join(dir, fmt.Sprintf("data%d", i)), w.workers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ready)
		if i < setupRepeats-1 {
			if _, err := dd.stop(); err != nil {
				return nil, err
			}
			continue
		}
		d = dd
	}
	o.fact("workers", w.workers)
	o.fact("clients", w.clients)
	o.fact("job_threads", w.jobThreads)
	o.fact("designs", w.designs)

	var tr *tracer
	if cfg.trace == 1 {
		tr = newTracer()
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		obs  []jobObs
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= w.designs && time.Since(start).Seconds() >= cfg.seconds {
					return
				}
				j := d.place(ctx, client, jobSpec{Gen: &specs[i%w.designs], Threads: w.jobThreads}, tr)
				j.design = i % w.designs
				mu.Lock()
				obs = append(obs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	measured := time.Since(start).Seconds()
	rss, err := d.stop()
	if err != nil {
		return nil, err
	}

	// Gate every job; a design placed twice must give bitwise the same HPWL.
	first := make([]*jobObs, w.designs)
	var turnaround, place, submit, wait, runT, overhead []float64
	done := 0
	for k := range obs {
		j := &obs[k]
		err := j.check(w.wantPrecond)
		if err == nil {
			if f := first[j.design]; f == nil {
				err = rec.check(j.design, j.rec.Result.HPWL)
				first[j.design] = j
			} else if math.Float64bits(f.rec.Result.HPWL) != math.Float64bits(j.rec.Result.HPWL) {
				err = fmt.Errorf("design %d placed at HPWL %.17g, earlier at %.17g",
					j.design, j.rec.Result.HPWL, f.rec.Result.HPWL)
			}
		}
		o.judge("job "+j.rec.ID, err)
		if err != nil {
			continue
		}
		done++
		r := j.rec
		qw := r.Started.Sub(r.Submitted).Seconds()
		turnaround = append(turnaround, j.turnaround)
		place = append(place, r.Result.TotalSeconds)
		submit = append(submit, j.submit)
		wait = append(wait, qw)
		runT = append(runT, r.Finished.Sub(*r.Started).Seconds())
		overhead = append(overhead, j.turnaround-qw-r.Result.TotalSeconds)
	}
	var hpwls []float64
	var scaled float64
	for _, f := range first {
		if f == nil {
			continue // no correct placement; the failures are counted
		}
		hpwls = append(hpwls, f.rec.Result.HPWL)
		scaled += f.rec.Result.ScaledHPWL
	}
	if len(hpwls) == len(first) {
		if err := rec.save(hpwls); err != nil {
			return nil, err
		}
		o.fact("precond", first[0].rec.Result.Precond)
	}
	o.fact("jobs", len(obs))

	o.setSamples("place_s", median(place), place)
	o.setSamples("setup_s", median(setups), setups)
	o.set("hpwl", sum(hpwls))
	o.set("scaled_hpwl", scaled)
	o.set("peak_rss_mb", rss)
	o.setSamples("job_turnaround_p50_s", median(turnaround), turnaround)
	o.setSamples("job_turnaround_p75_s", quantile(turnaround, 0.75), turnaround)
	o.set("jobs_per_s", float64(done)/measured)

	var tps []*tracedPlacement
	var replayWall float64
	for i := 0; i < w.replays && i < w.designs; i++ {
		if first[i] == nil {
			continue // the design's jobs failed, and are counted
		}
		tp, wall, err := replay(ctx, tr, specs[i], first[i], w.jobThreads)
		o.judge(fmt.Sprintf("replay of design %d", i), err)
		if i < len(w.kinds) && err == nil {
			o.design(fmt.Sprintf("job%d_", i), tp.nl)
		}
		if tp != nil {
			tps = append(tps, tp)
			replayWall += wall
		}
	}
	if cfg.trace == 1 {
		o.setLayers(tps, replayWall)
		o.set("cluster.coarsen_s", 0)
		o.setSamples("complxd.submit_s", median(submit), submit)
		o.setSamples("complxd.queue_wait_s", median(wait), wait)
		o.setSamples("complxd.run_s", median(runT), runT)
		o.setSamples("complxd.place_s", median(place), place)
		o.setSamples("complxd.overhead_s", median(overhead), overhead)
		o.zero("chkpt.file_bytes", "chkpt.save_s", "chkpt.load_s")
		if first[0] != nil {
			ckpt := filepath.Join(dir, fmt.Sprintf("data%d", setupRepeats-1), "jobs", first[0].rec.ID, "ckpt")
			if err := probeCheckpoint(o, tr, ckpt, filepath.Join(dir, "probe")); err != nil {
				return nil, err
			}
		}
	}
	o.spans = tr.finish()
	return o, nil
}

// replay places one job's design in-process with the job's options, gates
// the placement and checks it is bitwise the daemon's. With a tracer it
// places the design a second time, call by call under spans, and returns
// that traced placement together with the untraced wall time.
func replay(ctx context.Context, tr *tracer, sp complx.BenchSpec, job *jobObs, threads int) (*tracedPlacement, float64, error) {
	nl, err := complx.Generate(sp)
	if err != nil {
		return nil, 0, err
	}
	opt := complx.Options{TargetDensity: sp.TargetDensity, Threads: threads}
	p, err := placeUntraced(ctx, nl.Clone(), opt)
	if err != nil {
		return nil, 0, err
	}
	if err := verify(p.nl, p.hpwl); err != nil {
		return nil, 0, err
	}
	if math.Float64bits(job.rec.Result.HPWL) != math.Float64bits(p.hpwl) {
		return nil, 0, fmt.Errorf("in-process HPWL %.17g, job %s reported %.17g", p.hpwl, job.rec.ID, job.rec.Result.HPWL)
	}
	if tr == nil {
		return &tracedPlacement{placed: *p}, p.wall, nil
	}
	tp, err := placeTraced(ctx, tr, spanRef{}, nl.Clone(), opt)
	if err != nil {
		return nil, 0, err
	}
	if err := verify(tp.nl, tp.hpwl); err != nil {
		return nil, 0, err
	}
	if err := tp.sameAs(p); err != nil {
		return nil, 0, fmt.Errorf("traced replay: %w", err)
	}
	return tp, p.wall, nil
}

// checkpointProbes is how often the checkpoint probe saves and loads.
const checkpointProbes = 15

// probeCheckpoint times chkpt.Manager.Save and Load from outside the daemon
// on the finished job checkpoint in ckptDir, saving to and loading from
// probeDir.
func probeCheckpoint(o *outcome, tr *tracer, ckptDir, probeDir string) error {
	src := &chkpt.Manager{Dir: ckptDir}
	data, err := os.ReadFile(src.Path())
	if err != nil {
		return fmt.Errorf("job checkpoint: %w", err)
	}
	st, err := chkpt.Decode(data)
	if err != nil {
		return fmt.Errorf("job checkpoint: %w", err)
	}
	m := &chkpt.Manager{Dir: probeDir, Fingerprint: st.Fingerprint}
	var saves, loads []float64
	for i := 0; i < checkpointProbes; i++ {
		s := tr.start("chkpt.Manager.Save", spanRef{})
		err := m.Save(st)
		saves = append(saves, s.end())
		if err != nil {
			return err
		}
		s = tr.start("chkpt.Manager.Load", spanRef{})
		_, err = m.Load()
		loads = append(loads, s.end())
		if err != nil {
			return err
		}
	}
	o.set("chkpt.file_bytes", float64(len(data)))
	o.setSamples("chkpt.save_s", median(saves), saves)
	o.setSamples("chkpt.load_s", median(loads), loads)
	return nil
}

package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// Report is the machine-readable summary of one placement run: design and
// configuration metadata, the end-of-run result, the full per-iteration
// trace, the final metric snapshot and the recorded span tree. WriteJSON
// emits the whole report; WriteCSV emits the iteration trace as a flat
// convergence table (one row per global iteration) for plotting.
type Report struct {
	Schema    string `json:"schema"` // "complx-run-report/1"
	Design    string `json:"design"`
	Algorithm string `json:"algorithm"`
	Cells     int    `json:"cells"`
	Nets      int    `json:"nets"`
	Pins      int    `json:"pins"`

	Started  string  `json:"started,omitempty"`
	Finished string  `json:"finished,omitempty"`
	Seconds  float64 `json:"seconds"`

	Result  FinalStats         `json:"result"`
	Trace   []IterStats        `json:"trace"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Spans   []*SpanNode        `json:"spans,omitempty"`
}

// ReportSchema identifies the JSON report format version.
const ReportSchema = "complx-run-report/1"

// Report assembles the run report from everything recorded so far. It may
// be called on a finished or in-flight run; nil-safe (returns nil).
func (o *Observer) Report() *Report {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	st := o.status
	final := o.final
	trace := append([]IterStats(nil), o.trace...)
	o.mu.Unlock()

	r := &Report{
		Schema:    ReportSchema,
		Design:    st.Design,
		Algorithm: st.Algorithm,
		Cells:     st.Cells,
		Nets:      st.Nets,
		Pins:      st.Pins,
		Seconds:   st.Updated.Sub(st.Started).Seconds(),
		Result:    final,
		Trace:     trace,
		Metrics:   o.Metrics().Snapshot(),
		Spans:     o.Spans(),
	}
	if !st.Started.IsZero() {
		r.Started = st.Started.Format("2006-01-02T15:04:05.000Z07:00")
		r.Finished = st.Updated.Format("2006-01-02T15:04:05.000Z07:00")
	}
	return r
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// TraceCSVHeader is the column order of the CSV iteration trace. The
// precond column repeats the run's resolved preconditioner name on every
// row so the flat table stays self-describing when traces from differently
// configured runs are concatenated for plotting.
var TraceCSVHeader = []string{
	"iter", "lambda", "phi", "phi_upper", "pi", "lagrangian", "overflow",
	"grid_nx", "cg_iters", "precond",
	"project_seconds", "assembly_seconds", "solve_seconds", "precond_seconds",
	"level",
}

// WriteCSV writes the per-iteration convergence trace as CSV (see
// TraceCSVHeader for the column order).
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(TraceCSVHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range r.Trace {
		rec := []string{
			strconv.Itoa(s.Iter), f(s.Lambda), f(s.Phi), f(s.PhiUpper),
			f(s.Pi), f(s.L), f(s.Overflow),
			strconv.Itoa(s.GridNX), strconv.Itoa(s.CGIters), r.Result.Precond,
			f(s.ProjectTime.Seconds()), f(s.AssemblyTime.Seconds()), f(s.SolveTime.Seconds()), f(s.PrecondTime.Seconds()),
			strconv.Itoa(s.Level),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFiles writes base+".json" (full report) and base+".csv" (iteration
// trace) and returns the two paths.
func (r *Report) WriteFiles(base string) (jsonPath, csvPath string, err error) {
	jsonPath, csvPath = base+".json", base+".csv"
	jf, err := os.Create(jsonPath)
	if err != nil {
		return "", "", err
	}
	if err := r.WriteJSON(jf); err != nil {
		jf.Close()
		return "", "", fmt.Errorf("obs: write %s: %w", jsonPath, err)
	}
	if err := jf.Close(); err != nil {
		return "", "", err
	}
	cf, err := os.Create(csvPath)
	if err != nil {
		return "", "", err
	}
	if err := r.WriteCSV(cf); err != nil {
		cf.Close()
		return "", "", fmt.Errorf("obs: write %s: %w", csvPath, err)
	}
	if err := cf.Close(); err != nil {
		return "", "", err
	}
	return jsonPath, csvPath, nil
}

// ReadReport parses a JSON run report (the inverse of WriteJSON), used by
// cmd/experiments and tests to consume reports programmatically.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("obs: parse report: %w", err)
	}
	if rep.Schema != ReportSchema {
		return nil, fmt.Errorf("obs: unknown report schema %q (want %q)", rep.Schema, ReportSchema)
	}
	return &rep, nil
}

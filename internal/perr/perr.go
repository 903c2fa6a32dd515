// Package perr defines the structured error type shared by the placement
// pipeline. Every stage of the flow — Bookshelf parsing, netlist
// validation, system assembly, the CG solves, projection, legalization —
// wraps its failures in an *Error carrying the stage name and, when known,
// the offending input file, line number and global-placement iteration.
//
// The type renders as a single line
//
//	stage=parse file=bad.pl line=7: truncated placement line "o1 12"
//
// so command-line front ends can print it directly, and it participates in
// errors.Is/errors.As chains through Unwrap, so callers can still test for
// sentinel causes (for example sparse.ErrNotFinite).
package perr

import (
	"fmt"
	"strings"
)

// Well-known stage names. Stages are plain strings rather than an enum so
// that extensions can introduce their own without touching this package.
const (
	StageIO       = "io"       // file access
	StageParse    = "parse"    // Bookshelf (or other format) parsing
	StageValidate = "validate" // netlist validation
	StageSolve    = "solve"    // CG / nonlinear primal solves
	StageProject  = "project"  // feasibility projection
	StageLegalize = "legalize" // legalization
	StageDetailed = "detailed" // detailed placement
	StageCancel   = "cancel"   // run stopped by context cancellation

	StageCheckpoint = "checkpoint" // checkpoint persistence / resumption
	StageRecover    = "recover"    // solver fallback ladder exhausted

	// Service-hardening stages emitted by the complxd daemon (DESIGN.md
	// §15): failures of the job, not of the placement numerics.
	StagePanic      = "panic"      // worker panic converted to a job failure
	StageWatchdog   = "watchdog"   // progress watchdog cancelled a stalled job
	StageDeadline   = "deadline"   // per-job deadline exceeded
	StageAdmission  = "admission"  // admission control rejected or shed work
	StageQuarantine = "quarantine" // crash-loop breaker quarantined a poison job
)

// Error is a structured placement-pipeline error.
type Error struct {
	// Stage names the pipeline stage that failed (one of the Stage*
	// constants, or a caller-defined string).
	Stage string
	// File is the input file involved, when known.
	File string
	// Line is the 1-based line number within File, when known (0 = unknown).
	Line int
	// Iter is the global placement iteration at failure time (0 = not
	// applicable / before the first iteration).
	Iter int
	// Err is the underlying cause.
	Err error
}

// Error renders the structured fields followed by the cause, on one line.
func (e *Error) Error() string {
	var b strings.Builder
	b.WriteString("stage=")
	if e.Stage == "" {
		b.WriteString("unknown")
	} else {
		b.WriteString(e.Stage)
	}
	if e.File != "" {
		fmt.Fprintf(&b, " file=%s", e.File)
	}
	if e.Line > 0 {
		fmt.Fprintf(&b, " line=%d", e.Line)
	}
	if e.Iter > 0 {
		fmt.Fprintf(&b, " iter=%d", e.Iter)
	}
	b.WriteString(": ")
	if e.Err != nil {
		b.WriteString(e.Err.Error())
	} else {
		b.WriteString("unspecified error")
	}
	return b.String()
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// New builds a stage error from a formatted message.
func New(stage, format string, args ...any) *Error {
	return &Error{Stage: stage, Err: fmt.Errorf(format, args...)}
}

// Wrap attaches a stage to err. nil stays nil. When err itself is an
// *Error (direct, not nested behind other wrappers), the stage is filled
// into a copy instead of double-wrapping, so messages never read
// "stage=x: stage=y: ...".
func Wrap(stage string, err error) error {
	if err == nil {
		return nil
	}
	if pe, ok := err.(*Error); ok {
		if pe.Stage == "" {
			cp := *pe
			cp.Stage = stage
			return &cp
		}
		return err
	}
	return &Error{Stage: stage, Err: err}
}

// WrapIter attaches a stage and iteration number to err (nil stays nil).
func WrapIter(stage string, iter int, err error) error {
	if err == nil {
		return nil
	}
	if pe, ok := err.(*Error); ok {
		cp := *pe
		if cp.Stage == "" {
			cp.Stage = stage
		}
		if cp.Iter == 0 {
			cp.Iter = iter
		}
		return &cp
	}
	return &Error{Stage: stage, Iter: iter, Err: err}
}

// WithFile returns err annotated with the given file name. A direct *Error
// has its File field filled (in a copy) when empty; any other error is
// wrapped in a fresh *Error carrying the file.
func WithFile(err error, file string) error {
	if err == nil {
		return nil
	}
	if pe, ok := err.(*Error); ok {
		cp := *pe
		if cp.File == "" {
			cp.File = file
		}
		return &cp
	}
	return &Error{File: file, Err: err}
}

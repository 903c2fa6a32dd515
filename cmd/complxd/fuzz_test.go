package main

import (
	"encoding/json"
	"errors"
	"testing"

	"complx"
)

// FuzzJobSpec asserts the job decoder's safety contract on arbitrary bytes:
// decoding never panics, and every spec that Validate accepts is actually
// runnable — in particular, an accepted portfolio configuration re-validates
// cleanly at the facade, so a queued job can never fail on an option the
// server should have rejected at submission.
//
// Run long sessions with e.g.
//
//	go test ./cmd/complxd -fuzz FuzzJobSpec -fuzztime 60s
func FuzzJobSpec(f *testing.F) {
	f.Add(`{"bench":"adaptec1"}`)
	f.Add(`{"bench":"adaptec1","algorithm":"simpl","multilevel":true,"ml_target_cells":500}`)
	f.Add(`{"gen":{"Name":"t","NumCells":64},"threads":2,"priority":5}`)
	// The portfolio-options decoder case: every portfolio field exercised.
	f.Add(`{"bench":"adaptec1","portfolio":true,"pf_members":4,"pf_rounds":3,"pf_cull_fraction":0.25,"pf_seed":7}`)
	f.Add(`{"bench":"adaptec1","portfolio":true,"pf_members":1}`)
	f.Add(`{"bench":"adaptec1","portfolio":true,"pf_cull_fraction":1.5}`)
	f.Add(`{"bench":"adaptec1","portfolio":true,"pf_rounds":-1}`)
	// Governance fields: deadlines must be non-negative and finite-friendly.
	f.Add(`{"bench":"adaptec1","deadline_seconds":30}`)
	f.Add(`{"bench":"adaptec1","deadline_seconds":0.001}`)
	f.Add(`{"bench":"adaptec1","deadline_seconds":-1}`)
	f.Add(`{"bench":"adaptec1","deadline_seconds":1e308}`)
	f.Fuzz(func(t *testing.T, data string) {
		var s JobSpec
		if err := json.Unmarshal([]byte(data), &s); err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			return
		}
		// Accepted specs must satisfy the invariants the scheduler relies on.
		if s.Scale < 0 || s.Threads < 0 {
			t.Fatalf("Validate accepted negative scale/threads: %+v", s)
		}
		if s.DeadlineSeconds < 0 {
			t.Fatalf("Validate accepted a negative deadline: %+v", s)
		}
		opt, err := s.options()
		if err != nil {
			t.Fatalf("Validate accepted a spec with no options: %v (%+v)", err, s)
		}
		if err := opt.Validate(); err != nil {
			t.Fatalf("Validate accepted a spec the facade rejects: %v (%+v)", err, s)
		}
		if s.Portfolio && s.Multilevel {
			t.Fatalf("Validate accepted portfolio+multilevel: %+v", s)
		}
	})
}

// TestJobSpecPortfolioValidation pins the up-front rejection of unusable
// portfolio configurations: each arrives as job JSON (the wire format), is
// rejected by Validate before queueing, and the error unwraps to a
// *complx.PlaceError with stage "options".
func TestJobSpecPortfolioValidation(t *testing.T) {
	valid := []string{
		`{"bench":"adaptec1","portfolio":true}`,
		`{"bench":"adaptec1","portfolio":true,"pf_members":4,"pf_rounds":3,"pf_cull_fraction":0.25,"pf_seed":7}`,
		`{"bench":"adaptec1","algorithm":"simpl","portfolio":true,"pf_members":2}`,
	}
	for _, in := range valid {
		var s JobSpec
		if err := json.Unmarshal([]byte(in), &s); err != nil {
			t.Fatalf("decode %s: %v", in, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("valid spec %s rejected: %v", in, err)
		}
	}

	invalid := []struct {
		name string
		in   string
	}{
		{"members-below-2", `{"bench":"adaptec1","portfolio":true,"pf_members":1}`},
		{"members-negative", `{"bench":"adaptec1","portfolio":true,"pf_members":-4}`},
		{"rounds-below-1", `{"bench":"adaptec1","portfolio":true,"pf_rounds":-1}`},
		{"cull-at-1", `{"bench":"adaptec1","portfolio":true,"pf_cull_fraction":1}`},
		{"cull-above-1", `{"bench":"adaptec1","portfolio":true,"pf_cull_fraction":1.5}`},
		{"cull-negative", `{"bench":"adaptec1","portfolio":true,"pf_cull_fraction":-0.25}`},
	}
	for _, tc := range invalid {
		t.Run(tc.name, func(t *testing.T) {
			var s JobSpec
			if err := json.Unmarshal([]byte(tc.in), &s); err != nil {
				t.Fatalf("decode: %v", err)
			}
			err := s.Validate()
			if err == nil {
				t.Fatalf("invalid portfolio spec accepted: %s", tc.in)
			}
			var pe *complx.PlaceError
			if !errors.As(err, &pe) || pe.Stage != "options" {
				t.Fatalf("want *PlaceError stage options, got %T %v", err, err)
			}
		})
	}

	// Structural conflicts are rejected by the same facade validator.
	conflicts := []string{
		`{"bench":"adaptec1","portfolio":true,"multilevel":true}`,
		`{"bench":"adaptec1","algorithm":"nlp","portfolio":true}`,
	}
	for _, in := range conflicts {
		var s JobSpec
		if err := json.Unmarshal([]byte(in), &s); err != nil {
			t.Fatalf("decode %s: %v", in, err)
		}
		err := s.Validate()
		var pe *complx.PlaceError
		if !errors.As(err, &pe) || pe.Stage != "options" {
			t.Errorf("conflicting spec %s: want *PlaceError stage options, got %T %v", in, err, err)
		}
	}
}

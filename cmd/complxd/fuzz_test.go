package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzJobSpec asserts the job decoder's safety contract on arbitrary bytes:
// decoding never panics, a spec with a field JobSpec does not know is
// rejected at decode, and every spec that Validate accepts is actually
// runnable — its options re-validate cleanly at the facade, so a queued
// job can never fail on an option the server should have rejected at
// submission.
//
// Run long sessions with e.g.
//
//	go test ./cmd/complxd -fuzz FuzzJobSpec -fuzztime 60s
func FuzzJobSpec(f *testing.F) {
	f.Add(`{"bench":"adaptec1"}`)
	f.Add(`{"bench":"adaptec1","algorithm":"simpl","multilevel":true,"ml_target_cells":500}`)
	f.Add(`{"gen":{"Name":"t","NumCells":64},"threads":2,"priority":5}`)
	// The retired portfolio fields: unknown at decode, never run flat.
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
		s, err := decodeSpec(strings.NewReader(data))
		if err != nil {
			return
		}
		// Every top-level key of an accepted spec names a JobSpec field.
		var keys map[string]json.RawMessage
		if err := json.NewDecoder(strings.NewReader(data)).Decode(&keys); err == nil {
			for k := range keys {
				if !jobSpecField(k) {
					t.Fatalf("decodeSpec accepted unknown field %q: %s", k, data)
				}
			}
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
	})
}

// jobSpecField reports whether key names a JobSpec JSON field, matched
// case-insensitively as encoding/json matches them.
func jobSpecField(key string) bool {
	t := reflect.TypeOf(JobSpec{})
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if strings.EqualFold(name, key) {
			return true
		}
	}
	return false
}

// TestJobSpecPortfolioValidation pins the rejection of the retired
// portfolio job fields: a spec that still carries one arrives as job JSON
// (the wire format) and fails at decode with an unknown-field error, so it
// can never run silently as a flat placement.
func TestJobSpecPortfolioValidation(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"enabled", `{"bench":"adaptec1","portfolio":true}`},
		{"all-knobs", `{"bench":"adaptec1","portfolio":true,"pf_members":4,"pf_rounds":3,"pf_cull_fraction":0.25,"pf_seed":7}`},
		{"members-below-2", `{"bench":"adaptec1","portfolio":true,"pf_members":1}`},
		{"members-negative", `{"bench":"adaptec1","portfolio":true,"pf_members":-4}`},
		{"rounds-below-1", `{"bench":"adaptec1","portfolio":true,"pf_rounds":-1}`},
		{"cull-at-1", `{"bench":"adaptec1","portfolio":true,"pf_cull_fraction":1}`},
		{"cull-above-1", `{"bench":"adaptec1","portfolio":true,"pf_cull_fraction":1.5}`},
		{"cull-negative", `{"bench":"adaptec1","portfolio":true,"pf_cull_fraction":-0.25}`},
		{"knob-only", `{"bench":"adaptec1","pf_seed":7}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeSpec(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), "unknown field") {
				t.Fatalf("retired portfolio spec %s: want an unknown-field error, got %v", tc.in, err)
			}
		})
	}

	// The retired placer names are unknown algorithms.
	for _, alg := range []string{"fastplace-cs", "fastplace", "nlp", "rql"} {
		in := fmt.Sprintf(`{"bench":"adaptec1","algorithm":%q}`, alg)
		s, err := decodeSpec(strings.NewReader(in))
		if err != nil {
			t.Fatalf("decode %s: %v", in, err)
		}
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Errorf("retired algorithm %s: want an unknown-algorithm error, got %v", in, err)
		}
	}
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// record is the HPWL every design of a workload got on a run at one seed,
// together with a digest of the binaries that placed them. A workload's
// HPWL must be bitwise the same on every run of the same binaries at one
// seed: a run checks its placements against the record an earlier run left
// in the work directory, then leaves its own.
type record struct {
	Binary string   `json:"binary"`
	HPWL   []uint64 `json:"hpwl_bits"`

	path string
	prev []uint64 // the earlier run's HPWL, when its binaries were these
}

// newRecord digests this executable and the extra binaries and loads the
// earlier record of the workload at cfg.seed, if there is one.
func newRecord(o *outcome, cfg config, binaries ...string) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	for _, b := range append([]string{exe}, binaries...) {
		if err := digest(h, b); err != nil {
			return nil, err
		}
	}
	r := &record{
		Binary: hex.EncodeToString(h.Sum(nil)),
		path:   filepath.Join(cfg.work, fmt.Sprintf("hpwl-%s-seed%d.json", o.workload, cfg.seed)),
	}
	data, err := os.ReadFile(r.path)
	if os.IsNotExist(err) {
		return r, nil
	}
	if err != nil {
		return nil, err
	}
	var old record
	if err := json.Unmarshal(data, &old); err != nil {
		return nil, fmt.Errorf("%s: %w", r.path, err)
	}
	if old.Binary == r.Binary {
		r.prev = old.HPWL
	}
	return r, nil
}

func digest(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}

// check compares design k's HPWL with the earlier run's.
func (r *record) check(k int, hpwl float64) error {
	if k < len(r.prev) && r.prev[k] != math.Float64bits(hpwl) {
		return fmt.Errorf("HPWL %.17g, an earlier run at this seed got %.17g", hpwl, math.Float64frombits(r.prev[k]))
	}
	return nil
}

// save leaves this run's HPWL, one per design, for the next run.
func (r *record) save(hpwl []float64) error {
	r.HPWL = r.HPWL[:0]
	for _, h := range hpwl {
		r.HPWL = append(r.HPWL, math.Float64bits(h))
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return writeFile(r.path, data)
}

package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The cell cache: one JSON ledger per recording, keyed by the recording's
// digests. A ledger is only ever consulted when BOTH digests match — a
// changed workload configuration or a changed recording observation gets a
// fresh ledger file, so a cache hit is by construction a bit-identical
// re-simulation of the same cell. Ranks are not cached (they are a per-sweep
// property of the grid subset); everything else in a CellResult is.

// ledger is the on-disk cache format.
type ledger struct {
	ConfigDigest   string                `json:"config_digest"`
	WorkloadDigest string                `json:"workload_digest"`
	Cells          map[string]CellResult `json:"cells"`
}

// ledgerPath names the recording's ledger file inside dir.
func ledgerPath(dir string, rec *Recording) string {
	return filepath.Join(dir, fmt.Sprintf("tune-%s-%s.json", rec.Workload, rec.WorkloadDigest[:16]))
}

// loadLedger reads the recording's ledger; a missing, unreadable, corrupt
// or digest-mismatched ledger yields an empty one (the sweep then re-runs
// and rewrites — the cache can lose, never lie).
func loadLedger(dir string, rec *Recording) ledger {
	if dir == "" {
		return ledger{Cells: map[string]CellResult{}}
	}
	raw, _ := os.ReadFile(ledgerPath(dir, rec))
	return parseLedger(raw, rec)
}

// parseLedger decodes a ledger file's bytes for rec: empty unless they are a
// ledger with rec's digests, and without any cell filed under a key other
// than its own (a sweep looks cells up by key, so such a cell would answer
// for a cell that never ran).
func parseLedger(raw []byte, rec *Recording) ledger {
	empty := ledger{Cells: map[string]CellResult{}}
	var led ledger
	if json.Unmarshal(raw, &led) != nil ||
		led.ConfigDigest != rec.ConfigDigest ||
		led.WorkloadDigest != rec.WorkloadDigest ||
		led.Cells == nil {
		return empty
	}
	for k, c := range led.Cells {
		if c.Key() != k {
			delete(led.Cells, k)
		}
	}
	return led
}

// saveLedger merges the sweep's results into the recording's ledger and
// writes it atomically (temp file + rename), so a crashed sweep can never
// leave a truncated ledger behind.
func saveLedger(dir string, rec *Recording, results []CellResult) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("tune: creating cache dir: %w", err)
	}
	led := loadLedger(dir, rec)
	led.ConfigDigest = rec.ConfigDigest
	led.WorkloadDigest = rec.WorkloadDigest
	for _, r := range results {
		r.Rank = 0 // ranks are per-sweep, never cached
		led.Cells[r.Key()] = r
	}
	raw, err := json.MarshalIndent(&led, "", " ")
	if err != nil {
		return err
	}
	path := ledgerPath(dir, rec)
	tmp, err := os.CreateTemp(dir, ".tune-*")
	if err != nil {
		return fmt.Errorf("tune: writing ledger: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("tune: writing ledger: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("tune: writing ledger: %w", err)
	}
	return os.Rename(tmp.Name(), path)
}

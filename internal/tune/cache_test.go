package tune

import (
	"encoding/json"
	"testing"
)

// ledgerRecording is a recording whose digests the fuzzed ledgers carry.
var ledgerRecording = &Recording{Workload: "jacobi", ConfigDigest: "c0ffee", WorkloadDigest: "0123456789abcdef"}

// TestLedgerDropsMisfiledCells: a cell filed under another cell's key is
// dropped, not served for the cell that never ran.
func TestLedgerDropsMisfiledCells(t *testing.T) {
	good := CellResult{Cell: Cell{Protocol: "hbrc_mw", Topology: "uniform", Placement: "static"}, Correct: true, VirtualMS: 2}
	bad := good
	bad.Protocol = "li_hudak"
	raw, err := json.Marshal(ledger{
		ConfigDigest: ledgerRecording.ConfigDigest, WorkloadDigest: ledgerRecording.WorkloadDigest,
		Cells: map[string]CellResult{good.Key(): good, "erc_sw/uniform/static": bad},
	})
	if err != nil {
		t.Fatal(err)
	}
	led := parseLedger(raw, ledgerRecording)
	if len(led.Cells) != 1 || led.Cells[good.Key()] != good {
		t.Fatalf("parsed cells = %+v, want only %s", led.Cells, good.Key())
	}
}

// FuzzLedger: a ledger file of arbitrary bytes loads without a panic, as an
// empty ledger unless it carries the recording's digests, and every cell it
// serves is filed under its own key.
func FuzzLedger(f *testing.F) {
	cell := CellResult{Cell: Cell{Protocol: "hbrc_mw", Topology: "hier", Placement: "adaptive"}, Correct: true,
		VirtualMS: 1.5, Envelopes: 40, RemoteFetches: 3, HomeMigrations: 1, P99: 900}
	seed, err := json.MarshalIndent(ledger{
		ConfigDigest: ledgerRecording.ConfigDigest, WorkloadDigest: ledgerRecording.WorkloadDigest,
		Cells: map[string]CellResult{cell.Key(): cell},
	}, "", " ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"config_digest":"c0ffee","workload_digest":"0123456789abcdef","cells":{"a/b/c":{"protocol":"x"}}}`))
	f.Add([]byte(`{"cells":null}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		led := parseLedger(raw, ledgerRecording)
		if led.Cells == nil {
			t.Fatal("parsed ledger has no cell map")
		}
		if len(led.Cells) > 0 && (led.ConfigDigest != ledgerRecording.ConfigDigest || led.WorkloadDigest != ledgerRecording.WorkloadDigest) {
			t.Fatalf("served %d cells from a ledger with digests %q/%q", len(led.Cells), led.ConfigDigest, led.WorkloadDigest)
		}
		for k, c := range led.Cells {
			if c.Key() != k {
				t.Fatalf("cell %s filed under key %q", c.Key(), k)
			}
		}
	})
}

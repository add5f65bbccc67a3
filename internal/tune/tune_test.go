package tune

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dsmpm2"
)

// TestGridProtocolsMatchRegistry: the tuner's protocol axis covers exactly
// the protocols a System registers, so no protocol falls out of a sweep.
func TestGridProtocolsMatchRegistry(t *testing.T) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2})
	want := append([]string(nil), sys.ProtocolNames()...)
	got := append([]string(nil), Protocols...)
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tune.Protocols = %v,\nregistry has %v", got, want)
	}
}

// sweepOpts is the small jacobi grid the determinism tests sweep: 3
// protocols x full placement/topology axes = 18 cells.
var sweepOpts = Options{Protocols: []string{"li_hudak", "hbrc_mw", "adaptive"}}

// TestSweepDeterministicAcrossWorkers: the ranked report must be
// byte-identical whatever the worker-pool size — host scheduling may decide
// when a cell runs, never what it measures or where it ranks.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	var golden []byte
	for _, workers := range []int{1, 4, 16} {
		rep, err := sweep("jacobi", 9, sweepOpts, workers)
		if err != nil {
			t.Fatalf("sweep workers=%d: %v", workers, err)
		}
		if rep.GridSize != 18 || len(rep.Cells) != 18 {
			t.Fatalf("workers=%d: grid %d with %d cells, want 18", workers, rep.GridSize, len(rep.Cells))
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = raw
		} else if string(raw) != string(golden) {
			t.Fatalf("workers=%d: report differs from workers=1 report", workers)
		}
	}
}

// TestSweepRankingShape: the full ranking's invariants — ranks are 1..n,
// correct cells precede incorrect ones in non-decreasing virtual time, and
// the winner is rank 1 and beats the misplaced baseline.
func TestSweepRankingShape(t *testing.T) {
	rep, err := Sweep("jacobi", 9, sweepOpts)
	if err != nil {
		t.Fatal(err)
	}
	seenIncorrect := false
	lastMS := -1.0
	for i, c := range rep.Cells {
		if c.Rank != i+1 {
			t.Fatalf("cell %d has rank %d", i, c.Rank)
		}
		if c.Correct {
			if seenIncorrect {
				t.Fatalf("correct cell %s ranked after an incorrect one", c.Key())
			}
			if c.VirtualMS < lastMS {
				t.Fatalf("ranking not by virtual time at %s", c.Key())
			}
			lastMS = c.VirtualMS
		} else {
			seenIncorrect = true
		}
	}
	if rep.Winner.Rank != 1 || !rep.Winner.Correct {
		t.Fatalf("winner %+v is not the rank-1 correct cell", rep.Winner)
	}
	if rep.Winner.VirtualMS > rep.Baseline.VirtualMS {
		t.Fatalf("winner (%.3f ms) does not beat the misplaced baseline (%.3f ms)",
			rep.Winner.VirtualMS, rep.Baseline.VirtualMS)
	}
}

// TestBadGridAxisRejected: unknown or repeated grid-subset values, and an
// unknown workload, must be rejected with an error naming the valid set or
// the repeated value (dsmbench turns this into usage exit 2).
func TestBadGridAxisRejected(t *testing.T) {
	cases := []struct {
		workload string
		opts     Options
		want     string
	}{
		{"jacobi", Options{Protocols: []string{"nope"}}, "li_hudak"},
		{"jacobi", Options{Topologies: []string{"mesh"}}, "uniform"},
		{"jacobi", Options{Placements: []string{"wild"}}, "misplaced"},
		{"jacobi", Options{Protocols: []string{"li_hudak", "li_hudak"}, Topologies: []string{"uniform"},
			Placements: []string{"static"}}, `protocol "li_hudak" repeated`},
		{"bogus", Options{}, "jacobi"},
	}
	for _, c := range cases {
		if _, err := Sweep(c.workload, 9, c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Sweep(%s, %+v) error = %v, want it to name %q", c.workload, c.opts, err, c.want)
		}
	}
}

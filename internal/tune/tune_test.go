package tune

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dsmpm2"
)

// TestGridProtocolsMatchRegistry: the tuner's protocol axis must cover
// exactly the registered protocols — a protocol added to the registry
// without a grid entry would silently fall out of every sweep.
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

// TestRecordDeterministic: recording the same workload + seed twice must
// yield identical digests and baseline metrics — the property every cache
// lookup rests on.
func TestRecordDeterministic(t *testing.T) {
	for _, wl := range Workloads {
		a, err := Record(wl, 9)
		if err != nil {
			t.Fatalf("record %s: %v", wl, err)
		}
		b, err := Record(wl, 9)
		if err != nil {
			t.Fatalf("re-record %s: %v", wl, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: recordings differ:\n%+v\n%+v", wl, a, b)
		}
		if !a.Baseline.Correct {
			t.Errorf("%s: baseline cell incorrect: %+v", wl, a.Baseline)
		}
		c, err := Record(wl, 10)
		if err != nil {
			t.Fatalf("record %s seed 10: %v", wl, err)
		}
		if c.WorkloadDigest == a.WorkloadDigest {
			t.Errorf("%s: different seeds share a workload digest", wl)
		}
	}
}

// sweepOpts is the small jacobi grid the determinism tests sweep: 3
// protocols x full placement/topology axes = 18 cells.
func sweepOpts(workers int, cacheDir string) Options {
	return Options{
		Workers:   workers,
		CacheDir:  cacheDir,
		Protocols: []string{"li_hudak", "hbrc_mw", "adaptive"},
	}
}

// TestSweepDeterministicAcrossWorkers: the ranked report must be
// byte-identical whatever the worker-pool size — host scheduling may decide
// when a cell runs, never what it measures or where it ranks.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	rec, err := Record("jacobi", 9)
	if err != nil {
		t.Fatal(err)
	}
	var golden []byte
	for _, workers := range []int{1, 4, 16} {
		rep, err := Sweep(rec, sweepOpts(workers, ""))
		if err != nil {
			t.Fatalf("sweep workers=%d: %v", workers, err)
		}
		if rep.GridSize != 18 || rep.RanCells != 18 || rep.CachedCells != 0 {
			t.Fatalf("workers=%d: grid %d ran %d cached %d, want 18/18/0",
				workers, rep.GridSize, rep.RanCells, rep.CachedCells)
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

// TestSweepCacheHit: a second sweep over a warm cache must run zero cells
// and produce the identical ranking, and the ledger must be keyed by the
// recording (a different seed gets no hits).
func TestSweepCacheHit(t *testing.T) {
	dir := t.TempDir()
	rec, err := Record("jacobi", 9)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Sweep(rec, sweepOpts(0, dir))
	if err != nil {
		t.Fatal(err)
	}
	if cold.RanCells != cold.GridSize || cold.CachedCells != 0 {
		t.Fatalf("cold sweep ran %d/%d cached %d", cold.RanCells, cold.GridSize, cold.CachedCells)
	}
	warm, err := Sweep(rec, sweepOpts(0, dir))
	if err != nil {
		t.Fatal(err)
	}
	if warm.RanCells != 0 || warm.CachedCells != warm.GridSize {
		t.Fatalf("warm sweep ran %d, cached %d of %d — want 0 runs",
			warm.RanCells, warm.CachedCells, warm.GridSize)
	}
	if !reflect.DeepEqual(cold.Cells, warm.Cells) {
		t.Fatal("warm sweep's cells are not bit-identical to the cold sweep's")
	}
	if !reflect.DeepEqual(cold.Winner, warm.Winner) || cold.Prior != warm.Prior {
		t.Fatal("warm sweep's winner/prior diverged")
	}

	// A corrupt ledger must be ignored, not trusted or fatal.
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected exactly one ledger file, got %v (err %v)", ents, err)
	}
	if err := os.WriteFile(dir+"/"+ents[0].Name(), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := Sweep(rec, sweepOpts(0, dir))
	if err != nil {
		t.Fatal(err)
	}
	if again.RanCells != again.GridSize {
		t.Fatalf("corrupt ledger served %d cached cells", again.CachedCells)
	}

	// A different recording keys a different ledger.
	rec10, err := Record("jacobi", 10)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Sweep(rec10, sweepOpts(0, dir))
	if err != nil {
		t.Fatal(err)
	}
	if other.CachedCells != 0 {
		t.Fatalf("seed-10 sweep got %d cache hits from the seed-9 ledger", other.CachedCells)
	}
}

// TestSweepRankingShape: the full ranking's invariants — ranks are 1..n,
// correct cells precede incorrect ones in non-decreasing virtual time, the
// winner is rank 1 and beats the misplaced baseline, and the prior restates
// the winner.
func TestSweepRankingShape(t *testing.T) {
	rec, err := Record("jacobi", 9)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep(rec, sweepOpts(0, ""))
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
	if rep.Prior.Protocol != rep.Winner.Protocol || rep.Prior.Placement != rep.Winner.Placement ||
		rep.Prior.Workload != "jacobi" {
		t.Fatalf("prior %+v does not restate the winner %+v", rep.Prior, rep.Winner)
	}

	// The recommendation must actually feed back: a system built with the
	// prior reports the page-policy prior installed.
	prior := rep.Prior
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 4, TunedPrior: &prior})
	if !sys.DSM().TunedPagePrior() {
		t.Fatal("sweep prior did not install the page-policy prior")
	}
}

// TestBadGridAxisRejected: unknown grid-subset values must be rejected with
// an error naming the valid set (dsmbench turns this into usage exit 2).
func TestBadGridAxisRejected(t *testing.T) {
	rec, err := Record("jacobi", 9)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		opts Options
		want string
	}{
		{Options{Protocols: []string{"nope"}}, "li_hudak"},
		{Options{Topologies: []string{"mesh"}}, "uniform"},
		{Options{Placements: []string{"wild"}}, "misplaced"},
	}
	for _, c := range cases {
		if _, err := Sweep(rec, c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Sweep(%+v) error = %v, want it to name %q", c.opts, err, c.want)
		}
	}
	if _, err := Record("bogus", 1); err == nil || !strings.Contains(err.Error(), "jacobi") {
		t.Errorf("Record(bogus) error = %v, want the workload list", err)
	}
}

// TestMetricsEqualIgnoresRank pins the cache-identity helper.
func TestMetricsEqualIgnoresRank(t *testing.T) {
	a := CellResult{Cell: Cell{Protocol: "li_hudak"}, Rank: 1, VirtualMS: 2}
	b := a
	b.Rank = 7
	if !metricsEqual(a, b) {
		t.Error("rank difference broke metric equality")
	}
	b.VirtualMS = 3
	if metricsEqual(a, b) {
		t.Error("metric difference not detected")
	}
}

package dsmpm2_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dsmpm2"
)

// TestFaultstormResumesPerSection holds the miss path to its thread resumes,
// as TestKVServeResumesPerRequest holds the serving path: on the ledger's
// faultstorm shape through the facade (8 nodes, 64 one-page regions homed
// round-robin, one lock per page managed off its home, each node's thread
// running critical sections on seeded-random pages under li_hudak, hbrc_mw
// and migrate_thread), at a tenth of its sections, a critical section costs at
// most 9 coroutine resumes. A page install resumes nothing: it runs on the
// receiving node's installer, a step proc.
func TestFaultstormResumesPerSection(t *testing.T) {
	const nodes, pages, sections = 8, 64, 500
	var resumes, steps uint64
	for _, proto := range []string{"li_hudak", "hbrc_mw", "migrate_thread"} {
		sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: nodes, Protocol: proto, Network: dsmpm2.BIPMyrinet, Seed: 7})
		addrs, locks := make([]dsmpm2.Addr, pages), make([]int, pages)
		for pg := range addrs {
			addrs[pg] = sys.MustMalloc(pg%nodes, dsmpm2.PageSize, nil)
			locks[pg] = sys.NewLock((pg%nodes + 1) % nodes)
		}
		for n := 0; n < nodes; n++ {
			rng := rand.New(rand.NewSource(int64(7000003 + n)))
			sys.Spawn(n, fmt.Sprintf("storm%d", n), func(th *dsmpm2.Thread) {
				for k := 0; k < sections; k++ {
					pg := rng.Intn(pages)
					th.Acquire(locks[pg])
					count := th.ReadUint64(addrs[pg])
					for slot := 1; slot <= nodes; slot++ {
						th.ReadUint64(addrs[pg] + dsmpm2.Addr(8*slot))
					}
					th.WriteUint64(addrs[pg], count+1)
					th.WriteUint64(addrs[pg]+dsmpm2.Addr(8*(n+1)), uint64(k+1))
					th.Release(locks[pg])
					th.Compute(5 * dsmpm2.Microsecond)
				}
			})
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		qs := sys.Runtime().Engine().QueueStats()
		resumes, steps = resumes+qs.Resumes, steps+qs.Steps
	}
	perSection := float64(resumes) / (3 * nodes * sections)
	t.Logf("resumes %d (%.2f per section), installer steps %d", resumes, perSection, steps)
	if perSection > 9 {
		t.Errorf("%.2f resumes per critical section, want at most 9", perSection)
	}
	if steps == 0 {
		t.Error("no page was installed by step")
	}
}

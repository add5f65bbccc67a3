// Package bench provides the measurement scenarios shared by the root
// benchmark suite (bench_test.go) and the dsmbench command: the micro
// experiments of Section 2.1 and the fault breakdowns of Tables 3 and 4.
package bench

import (
	"fmt"

	"dsmpm2"
	"dsmpm2/internal/core"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/pm2"
)

// NullRPC measures the minimal round-trip latency of an empty RPC between
// two nodes, in microseconds (Section 2.1: 6us over SISCI/SCI, 8us over
// BIP/Myrinet).
func NullRPC(prof *madeleine.Profile) float64 {
	rt := pm2.NewRuntime(pm2.Config{Nodes: 2, Network: prof, Seed: 1})
	rt.Node(1).Register("null", false, func(h *pm2.Thread, arg interface{}) interface{} {
		return nil
	})
	var took float64
	rt.CreateThread(0, "caller", func(th *pm2.Thread) {
		start := th.Now()
		th.Call(1, "null", nil, 0, 0)
		took = th.Now().Sub(start).Microseconds()
	})
	mustRun(rt.Run())
	return took
}

// Migration measures the latency of migrating a minimal-stack thread
// between two nodes, in microseconds (Section 2.1: 62us over SISCI/SCI,
// 75us over BIP/Myrinet).
func Migration(prof *madeleine.Profile) float64 {
	rt := pm2.NewRuntime(pm2.Config{Nodes: 2, Network: prof, Seed: 1})
	var took float64
	rt.CreateThreadStack(0, "wanderer", 1024, func(th *pm2.Thread) {
		start := th.Now()
		th.MigrateTo(1)
		took = th.Now().Sub(start).Microseconds()
	})
	mustRun(rt.Run())
	return took
}

// ReadFaultPage performs one remote read fault under li_hudak (the
// page-migration policy) and returns its step breakdown (Table 3).
func ReadFaultPage(prof *madeleine.Profile) *core.FaultTiming {
	return readFault(prof, "li_hudak")
}

// ReadFaultMigrate performs one remote read fault under migrate_thread and
// returns its step breakdown (Table 4).
func ReadFaultMigrate(prof *madeleine.Profile) *core.FaultTiming {
	return readFault(prof, "migrate_thread")
}

func readFault(prof *madeleine.Profile, protocol string) *core.FaultTiming {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2, Network: prof, Protocol: protocol})
	base := sys.MustMalloc(1, core.PageSize, nil)
	sys.Spawn(0, "reader", func(t *dsmpm2.Thread) { t.ReadUint64(base) })
	mustRun(sys.Run())
	recs := sys.Timings().All()
	if len(recs) != 1 {
		panic(fmt.Sprintf("bench: expected 1 fault record, have %d", len(recs)))
	}
	return recs[0]
}

// LinkFault summarizes the read faults whose page transfer crossed one link
// class of a heterogeneous topology.
type LinkFault struct {
	Link        string
	Count       int
	MeanTotalUS float64
}

// HierReadFaults measures remote read faults across a hierarchical
// multi-cluster machine: every node other than 0 reads one page homed on
// node 0, so readers inside node 0's cluster fault over the intra profile
// and readers in other clusters over the inter profile. It returns one
// summary per link class, sorted by link name.
func HierReadFaults(nodes, clusters int, intra, inter *madeleine.Profile, protocol string) []LinkFault {
	topo := madeleine.NewHierarchical(madeleine.EvenClusters(nodes, clusters), intra, inter)
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: nodes, Network: topo, Protocol: protocol})
	for r := 1; r < nodes; r++ {
		base := sys.MustMalloc(0, core.PageSize, nil) // homed on node 0
		sys.Spawn(r, fmt.Sprintf("reader%d", r), func(t *dsmpm2.Thread) {
			t.ReadUint64(base)
		})
	}
	mustRun(sys.Run())
	var out []LinkFault
	for _, s := range sys.Timings().ByLink() {
		if s.Link == "" {
			continue // faults without a page transfer
		}
		out = append(out, LinkFault{
			Link:        s.Link,
			Count:       s.Count,
			MeanTotalUS: s.MeanTotal.Microseconds(),
		})
	}
	return out
}

// ContentionResult compares concurrent page transfers over one saturated
// link with and without the link occupancy model.
type ContentionResult struct {
	Readers int
	// Mean remote read-fault total, link contention off/on (us).
	MeanFaultOffUS float64
	MeanFaultOnUS  float64
	// Queueing observed with the model on.
	Waits      int
	WaitTimeUS float64
}

// Contention runs `readers` threads on node 1, each reading its own page
// homed on node 0, so every page transfer crosses the single 0->1 link
// concurrently. With the link model off the transfers overlap for free;
// with it on they serialize FIFO and the mean fault inflates by the
// queueing delay.
func Contention(prof *madeleine.Profile, readers int) ContentionResult {
	run := func(contended bool) (meanUS float64, waits int, waitUS float64) {
		sys := dsmpm2.MustNew(dsmpm2.Config{
			Nodes: 2, Network: prof, Protocol: "li_hudak",
			LinkContention: contended,
		})
		for r := 0; r < readers; r++ {
			base := sys.MustMalloc(0, core.PageSize, nil)
			sys.Spawn(1, fmt.Sprintf("reader%d", r), func(t *dsmpm2.Thread) {
				t.ReadUint64(base)
			})
		}
		mustRun(sys.Run())
		mean, n := sys.Timings().MeanTiming("")
		if n != readers {
			panic(fmt.Sprintf("bench: expected %d fault records, have %d", readers, n))
		}
		ls := sys.Runtime().Network().LinkStats()
		return mean.Total.Microseconds(), ls.Waits, ls.WaitTime.Microseconds()
	}
	res := ContentionResult{Readers: readers}
	res.MeanFaultOffUS, _, _ = run(false)
	res.MeanFaultOnUS, res.Waits, res.WaitTimeUS = run(true)
	return res
}

func mustRun(err error) {
	if err != nil {
		panic(err)
	}
}

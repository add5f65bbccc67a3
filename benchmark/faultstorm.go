package main

import (
	"fmt"
	"math/rand"

	"dsmpm2"
)

// The faultstorm workload is driven through the public facade only: 8 nodes,
// 64 one-page regions homed round-robin, one lock per page managed by a node
// other than the page's home. Each node's thread runs critical sections on a
// seeded-random page: acquire, read the page's counter and all 8 signature
// slots, bump the counter, sign its own slot, release, compute 5 us. With 64
// pages and 8 contenders nearly every section finds its page elsewhere, so
// the miss path dominates under every protocol.
const (
	stormNodes    = 8
	stormPages    = 64
	stormSections = 5000
)

// stormProtocols are run back to back. Only raw-paged-access protocols
// qualify: java_pf finishes this workload with a wrong total (ROADMAP 3a),
// so it is excluded here, not worked around.
var stormProtocols = []string{"li_hudak", "hbrc_mw", "migrate_thread"}

// stormVisits is node's page sequence: the same for every protocol, so the
// serial oracle is computed once.
func stormVisits(seed int64, node, sections int) []int {
	rng := rand.New(rand.NewSource((6+seed)*1000003 + int64(node)))
	v := make([]int, sections)
	for i := range v {
		v[i] = rng.Intn(stormPages)
	}
	return v
}

// stormSignature is what node writes into its slot on its k-th section.
func stormSignature(node, k int) uint64 {
	return uint64(node+1)<<32 | uint64(k+1)
}

type stormSystem struct {
	sys   *dsmpm2.System
	pages []dsmpm2.Addr
	locks []int
}

func prepareFaultstorm(seed int64, scale float64) (timedCall, error) {
	sections := scaled(stormSections, scale, 20)
	visits := make([][]int, stormNodes)
	// Serial oracle: per-page visit counts and each node's last signature.
	wantCount := make([]uint64, stormPages)
	wantSig := make([][stormNodes]uint64, stormPages)
	for n := range visits {
		visits[n] = stormVisits(seed, n, sections)
		for k, pg := range visits[n] {
			wantCount[pg]++
			wantSig[pg][n] = stormSignature(n, k)
		}
	}

	var storms []stormSystem
	for _, proto := range stormProtocols {
		sys, err := dsmpm2.New(dsmpm2.Config{
			Nodes: stormNodes, Protocol: proto, Network: dsmpm2.BIPMyrinet, Seed: 6 + seed,
		})
		if err != nil {
			return nil, err
		}
		st := stormSystem{sys: sys, pages: make([]dsmpm2.Addr, stormPages), locks: make([]int, stormPages)}
		for pg := range st.pages {
			home := pg % stormNodes
			st.pages[pg], err = sys.Malloc(home, dsmpm2.PageSize, nil)
			if err != nil {
				return nil, err
			}
			st.locks[pg] = sys.NewLock((home + 1) % stormNodes)
		}
		for n := 0; n < stormNodes; n++ {
			n := n
			sys.Spawn(n, fmt.Sprintf("storm%d", n), func(t *dsmpm2.Thread) {
				for k, pg := range visits[n] {
					base := st.pages[pg]
					t.Acquire(st.locks[pg])
					count := t.ReadUint64(base)
					for slot := 1; slot <= stormNodes; slot++ {
						t.ReadUint64(base + dsmpm2.Addr(8*slot))
					}
					t.WriteUint64(base, count+1)
					t.WriteUint64(base+dsmpm2.Addr(8*(n+1)), stormSignature(n, k))
					t.Release(st.locks[pg])
					t.Compute(5 * dsmpm2.Microsecond)
				}
			})
		}
		storms = append(storms, st)
	}

	perRun := int64(stormNodes * sections)
	return func() (*outcome, error) {
		out := &outcome{ops: perRun * int64(len(storms))}
		for _, st := range storms {
			if err := st.sys.Run(); err != nil {
				return nil, err
			}
			out.systems = append(out.systems, st.sys)
		}
		out.verify = func() (int64, error) {
			var failed int64
			var firstErr error
			for i, st := range storms {
				if err := stormCheck(st, wantCount, wantSig); err != nil {
					failed += perRun
					if firstErr == nil {
						firstErr = fmt.Errorf("faultstorm %s: %w", stormProtocols[i], err)
					}
				}
			}
			return failed, firstErr
		}
		return out, nil
	}, nil
}

// stormCheck reads every page back through a collector thread and compares
// counters (which therefore sum to nodes x sections) and signature slots with
// the oracle.
func stormCheck(st stormSystem, wantCount []uint64, wantSig [][stormNodes]uint64) error {
	var mismatch error
	st.sys.Spawn(0, "collect", func(t *dsmpm2.Thread) {
		for pg, base := range st.pages {
			// Under release consistency only an acquire makes the other
			// nodes' sections visible.
			t.Acquire(st.locks[pg])
			got := t.ReadUint64(base)
			if got != wantCount[pg] && mismatch == nil {
				mismatch = fmt.Errorf("page %d counter %d, oracle %d", pg, got, wantCount[pg])
			}
			for n := 0; n < stormNodes; n++ {
				if sig := t.ReadUint64(base + dsmpm2.Addr(8*(n+1))); sig != wantSig[pg][n] && mismatch == nil {
					mismatch = fmt.Errorf("page %d slot %d = %#x, oracle %#x", pg, n, sig, wantSig[pg][n])
				}
			}
			t.Release(st.locks[pg])
		}
	})
	if err := st.sys.Run(); err != nil {
		return err
	}
	return mismatch
}

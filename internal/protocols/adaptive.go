package protocols

import (
	"dsmpm2/internal/core"
)

// adaptive demonstrates the dynamic mechanism selection Section 2.3
// mentions: "one may even embed a dynamic mechanism selection within the
// protocol, switching for instance from page migration to thread migration
// depending on ad-hoc criteria."
//
// With the access-pattern profiler enabled (core.EnableProfiler), the
// criterion is the classifier itself: a page the last epoch classed as
// migratory — several nodes writing in turn, no stable dominant writer —
// sends the faulting thread to the data instead of pulling the page over,
// while producer-consumer and private pages stay on the page policy (and
// get re-homed onto their writers by the decision engine, making the page
// policy the cheap one). Without the profiler the protocol falls back to
// its original ad-hoc criterion: a node that keeps write-faulting on the
// same page stops pulling it once the per-node write-fault count crosses a
// threshold. All other behaviour is inherited from li_hudak.
type adaptive struct {
	liHudak
	// writeFaults[node][page] counts this node's write faults per page
	// since the counter was last reset by a successful migration (the
	// profiler-off fallback criterion).
	writeFaults []map[core.Page]int
}

// adaptiveThreshold is the write-fault count after which the protocol
// switches from page migration to thread migration for a page.
const adaptiveThreshold = 4

func newAdaptive(d *core.DSM) *adaptive {
	p := &adaptive{liHudak: liHudak{d: d}}
	for i := 0; i < d.Runtime().Nodes(); i++ {
		p.writeFaults = append(p.writeFaults, make(map[core.Page]int))
	}
	return p
}

// Name implements core.Protocol.
func (p *adaptive) Name() string { return "adaptive" }

// WriteFaultHandler picks the mechanism per page. Profiler on and the page
// classified: the epoch verdict decides — migratory pages send the thread
// to the data, everything else uses the page policy. Profiler off, or no
// verdict yet (a workload whose barriers never fold an epoch leaves every
// page ClassIdle forever): the original ad-hoc write-fault-count criterion,
// so enabling the profiler can never silently disable thread migration for
// ping-pong pages the classifier has no evidence about. Page ownership stays
// wherever li_hudak's mechanics put it, so the probable-owner chain remains
// intact for both mechanisms.
func (p *adaptive) WriteFaultHandler(f *core.Fault) {
	if p.d.ProfilerEnabled() {
		switch class, _ := core.Classification(p.d, f.Page); class {
		case core.ClassMigratory:
			core.MigrateToOwner(f)
			return
		case core.ClassIdle:
			// No epoch evidence — fall through to the fault-count heuristic.
		default:
			p.liHudak.WriteFaultHandler(f)
			return
		}
	}
	cnt := p.writeFaults[f.Node]
	cnt[f.Page]++
	if cnt[f.Page] > adaptiveThreshold {
		delete(cnt, f.Page)
		core.MigrateToOwner(f)
		return
	}
	p.liHudak.WriteFaultHandler(f)
}

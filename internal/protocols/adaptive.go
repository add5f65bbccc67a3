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
//
// The fallback's counter is the entry's ProtoData: the node's write faults
// on the page since the criterion last sent a thread, reset with the entry
// by a cold restart or a protocol switch.
type adaptive struct {
	liHudak
}

// adaptiveThreshold is the write-fault count after which the protocol
// switches from page migration to thread migration for a page.
const adaptiveThreshold = 4

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
	n, _ := f.Entry.ProtoData.(int)
	if n++; n > adaptiveThreshold {
		f.Entry.ProtoData = nil
		core.MigrateToOwner(f)
		return
	}
	f.Entry.ProtoData = n
	p.liHudak.WriteFaultHandler(f)
}

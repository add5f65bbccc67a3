package core

import (
	"fmt"
	"sort"

	"dsmpm2/internal/sim"
)

// Stats aggregates DSM activity counters across all nodes.
type Stats struct {
	Allocs     int
	AllocBytes int64

	ReadFaults  int64
	WriteFaults int64

	Requests      int64
	PageSends     int64
	PageBytes     int64
	Invalidations int64
	DiffsSent     int64
	DiffBytes     int64

	// Comm-module accounting. Sends counts every DSM message shipped
	// (requests, pages, invalidations, diff lists — whether alone or inside
	// a batch); InvAcks counts invalidation acknowledgements received
	// (individually or coalesced in a batch reply); Envelopes counts the
	// wire envelopes the DSM shipped, where a batched flush to one
	// destination counts once however many operations it carries; Notices
	// counts write notices piggybacked on barrier messages. The spread
	// between Sends and Envelopes is what batching saved.
	Sends     int64
	InvAcks   int64
	Envelopes int64
	Notices   int64

	Acquires int64
	Releases int64
	Barriers int64

	GetOps     int64
	PutOps     int64
	ObjFetches int64

	Migrations int64

	// Placement accounting (see profiler.go / migrate.go). RemoteFetches
	// counts page requests sent to another node (always maintained);
	// MisplacedFetches counts the subset issued by a page's profiled
	// dominant writer while the page was homed elsewhere — the traffic home
	// migration removes; HomeMigrations counts completed re-homings.
	RemoteFetches    int64
	MisplacedFetches int64
	HomeMigrations   int64
}

// Stats returns a copy of the DSM's counters.
func (d *DSM) Stats() Stats { return d.stats }

// FaultsOn reports the number of faults (read and write) taken by threads
// while located on node. The per-node distribution exposes the load
// imbalance Figure 4 attributes to migrate_thread: after the threads pile
// onto the bound's owner, faults stop occurring anywhere else.
func (d *DSM) FaultsOn(node int) int64 {
	if node < 0 || node >= len(d.nodeFaults) {
		return 0
	}
	return d.nodeFaults[node]
}

// CountObjFetch is called by object protocols when a get/put misses the
// local cache and fetches the page.
func (d *DSM) CountObjFetch() { d.stats.ObjFetches++ }

// FaultTiming decomposes one fault's handling into the steps of the paper's
// Tables 3 and 4. Page-policy faults fill Request/Transfer/Server/Install;
// migration-policy faults fill Migration/Overhead. All durations are
// virtual time.
type FaultTiming struct {
	Start    sim.Time
	Protocol string
	Write    bool
	seq      uint32 // numbers the fault that owns the record, from 1; 0 once freed

	// Link names the profile of the link that carried the page transfer
	// (empty for faults resolved without a transfer, e.g. migration
	// policies or local upgrades). Under a heterogeneous topology it
	// attributes each fault to its link class, so reports can split
	// intra- from inter-cluster costs.
	Link string

	Detect    sim.Duration // signal catch + parameter extraction (11us)
	Request   sim.Duration // control message to the owner
	Server    sim.Duration // request processing on the owner node
	Transfer  sim.Duration // page transfer back
	Install   sim.Duration // page installation on the requester
	Migration sim.Duration // thread migration (migration policy)
	Overhead  sim.Duration // handler overhead (migration policy)

	Total sim.Duration
}

// liveTiming returns ft while it is still the record of the fault numbered
// seq, the one a message was sent for, and nil otherwise: a response that
// arrives once the ring has recycled its fault's record writes nothing.
func liveTiming(ft *FaultTiming, seq uint32) *FaultTiming {
	if ft == nil || ft.seq != seq {
		return nil
	}
	return ft
}

// ProtocolOverhead returns the part of the fault the paper's tables report
// as "Protocol overhead": server + install for page policies, the handler
// overhead for migration policies.
func (ft *FaultTiming) ProtocolOverhead() sim.Duration {
	if ft.Migration > 0 {
		return ft.Overhead
	}
	return ft.Server + ft.Install
}

// String renders the timing as a compact table row.
func (ft *FaultTiming) String() string {
	kind := "read"
	if ft.Write {
		kind = "write"
	}
	if ft.Migration > 0 {
		return fmt.Sprintf("%s fault [%s]: fault=%v migration=%v overhead=%v total=%v",
			kind, ft.Protocol, ft.Detect, ft.Migration, ft.Overhead, ft.Total)
	}
	return fmt.Sprintf("%s fault [%s]: fault=%v request=%v transfer=%v overhead=%v total=%v",
		kind, ft.Protocol, ft.Detect, ft.Request, ft.Transfer, ft.ProtocolOverhead(), ft.Total)
}

// timingLog is a bounded ring of recent fault timings.
const timingCap = 4096

// TimingLog holds the most recent fault timings for post-mortem inspection.
type TimingLog struct {
	recs []*FaultTiming
	next int
	full bool
}

// Add appends a record and returns the one it evicts: the oldest, once the
// log is at capacity, else nil. The ring grows by doubling, to timingCap
// exactly: append's gentler growth past 256 entries would regrow it more
// often, and past the cap.
func (l *TimingLog) Add(ft *FaultTiming) (evicted *FaultTiming) {
	if len(l.recs) < timingCap {
		if len(l.recs) == cap(l.recs) {
			grown := make([]*FaultTiming, len(l.recs), min(max(2*cap(l.recs), 8), timingCap))
			copy(grown, l.recs)
			l.recs = grown
		}
		l.recs = append(l.recs, ft)
		return nil
	}
	evicted, l.recs[l.next] = l.recs[l.next], ft
	l.next = (l.next + 1) % timingCap
	l.full = true
	return evicted
}

// All returns the stored records, oldest first. They remain the log's: the
// core reuses a record for a new fault once later faults have evicted it, so
// a caller that lets the machine run on copies what it wants to keep.
func (l *TimingLog) All() []*FaultTiming {
	if !l.full {
		return append([]*FaultTiming(nil), l.recs...)
	}
	out := make([]*FaultTiming, 0, len(l.recs))
	out = append(out, l.recs[l.next:]...)
	out = append(out, l.recs[:l.next]...)
	return out
}

// Timings returns the DSM-wide fault-timing log (the live ring).
func (d *DSM) Timings() *TimingLog { return &d.timings }

// LinkSummary aggregates the fault timings whose page transfer crossed one
// link class.
type LinkSummary struct {
	Link      string
	Count     int
	MeanTotal sim.Duration
}

// ByLink groups the stored fault timings by the link that carried their page
// transfer and returns one summary per link name, sorted by name. Faults
// without a transfer link are grouped under "".
func (l *TimingLog) ByLink() []LinkSummary {
	totals := map[string]sim.Duration{}
	counts := map[string]int{}
	for _, ft := range l.All() {
		totals[ft.Link] += ft.Total
		counts[ft.Link]++
	}
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]LinkSummary, 0, len(names))
	for _, name := range names {
		out = append(out, LinkSummary{
			Link:      name,
			Count:     counts[name],
			MeanTotal: totals[name] / sim.Duration(counts[name]),
		})
	}
	return out
}

// MeanTiming averages the stored fault timings matching the given protocol
// name ("" matches all). It returns the mean record and the match count.
func (l *TimingLog) MeanTiming(protocol string) (FaultTiming, int) {
	var sum FaultTiming
	n := 0
	for _, ft := range l.All() {
		if protocol != "" && ft.Protocol != protocol {
			continue
		}
		sum.Detect += ft.Detect
		sum.Request += ft.Request
		sum.Server += ft.Server
		sum.Transfer += ft.Transfer
		sum.Install += ft.Install
		sum.Migration += ft.Migration
		sum.Overhead += ft.Overhead
		sum.Total += ft.Total
		n++
	}
	if n == 0 {
		return FaultTiming{}, 0
	}
	div := sim.Duration(n)
	sum.Detect /= div
	sum.Request /= div
	sum.Server /= div
	sum.Transfer /= div
	sum.Install /= div
	sum.Migration /= div
	sum.Overhead /= div
	sum.Total /= div
	sum.Protocol = protocol
	return sum, n
}

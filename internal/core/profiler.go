package core

import "sort"

// Online sharing-pattern profiler: the measurement half of DSM-PM2's
// "platform for designing and tuning consistency protocols" promise. The
// generic core already sees every access fault, page fetch and diff shipment;
// this file counts them per (page, node), folds the counters into epochs at
// cluster-wide barriers, and classifies each page's sharing pattern from the
// epoch evidence. The decision engine then (optionally) re-homes pages onto
// their dominant writers through the svcMigrateHome handshake in migrate.go.
//
// Hot-path contract: the per-access work is one map lookup plus counter
// increments into slices allocated once per page (at allocation time, the
// PR 2 pooling idiom) — no allocation, no sorting, no branching beyond the
// enabled check. All ordering-sensitive work (classification, decisions)
// happens at barrier boundaries, over counters whose updates commute
// (saturating adds), so the decisions are a pure function of the epoch
// counters and replays stay bit-identical regardless of the order the
// updates arrived in.

// PageClass is the sharing pattern the profiler assigns a page for one epoch.
type PageClass uint8

const (
	// ClassIdle: no recorded activity this epoch.
	ClassIdle PageClass = iota
	// ClassPrivate: one node both reads and writes the page; nobody else
	// touches it. The page belongs on that node.
	ClassPrivate
	// ClassReadShared: read faults only — the page is replicated and stays
	// wherever it is.
	ClassReadShared
	// ClassProducerConsumer: exactly one writer, at least one other reader.
	// The page belongs on the writer; consumers fetch from there.
	ClassProducerConsumer
	// ClassMigratory: several nodes write in turn (no concurrent diffs) —
	// the page bounces with the computation, and thread migration beats
	// page placement (the adaptive protocol's criterion).
	ClassMigratory
	// ClassFalselyShared: several nodes write concurrently (diffs from two
	// or more writers in one epoch under a multiple-writer protocol). The
	// page belongs on its busiest writer, which then pays no diff traffic.
	ClassFalselyShared

	numClasses
)

// String renders the class for reports and histograms.
func (c PageClass) String() string {
	switch c {
	case ClassIdle:
		return "idle"
	case ClassPrivate:
		return "private"
	case ClassReadShared:
		return "read-shared"
	case ClassProducerConsumer:
		return "producer-consumer"
	case ClassMigratory:
		return "migratory"
	case ClassFalselyShared:
		return "falsely-shared"
	}
	return "unknown"
}

// DefaultStability is the re-homing hysteresis: the number of consecutive
// epochs that must agree on a page's dominant writer before the page is
// re-homed (against ping-pong).
const DefaultStability = 2

// EpochProfile is one epoch's classification histogram: how many pages fell
// into each sharing class when the epoch's counters were folded, and how many
// home migrations the epoch's decisions triggered.
type EpochProfile struct {
	Epoch            int `json:"epoch"`
	Idle             int `json:"idle"`
	Private          int `json:"private"`
	ReadShared       int `json:"read_shared"`
	ProducerConsumer int `json:"producer_consumer"`
	Migratory        int `json:"migratory"`
	FalselyShared    int `json:"falsely_shared"`
	Migrations       int `json:"migrations"`
}

// bump increments the histogram bucket for class c.
func (ep *EpochProfile) bump(c PageClass) {
	switch c {
	case ClassIdle:
		ep.Idle++
	case ClassPrivate:
		ep.Private++
	case ClassReadShared:
		ep.ReadShared++
	case ClassProducerConsumer:
		ep.ProducerConsumer++
	case ClassMigratory:
		ep.Migratory++
	case ClassFalselyShared:
		ep.FalselyShared++
	}
}

// pageCounters is one node's access evidence for one page within the current
// epoch. Updates commute, so arrival order cannot influence the epoch fold.
type pageCounters struct {
	reads   uint32 // read faults taken on the node
	writes  uint32 // write faults taken on the node
	fetches uint32 // page requests sent by the node
	diffs   uint32 // diffs the node shipped for the page
}

// pageProfile is the profiler's per-page state: live counters (one slot per
// node, allocated once) and the last folded epoch's verdict.
type pageProfile struct {
	counts []pageCounters
	class  PageClass
	writer int // the verdict's dominant writer, -1 when the class names none
	// pref is the dominant writer of the last folded epoch (-1 none): the
	// page's preferred home. Fetches by pref from elsewhere count as
	// misplaced.
	pref int
	// stable counts consecutive epochs that agreed on pref.
	stable int
}

// profilerState is the DSM's profiler (nil when disabled).
type profilerState struct {
	nodes int
	pages map[Page]*pageProfile
	// order mirrors pages' keys in ascending order, maintained by binary
	// insert at track time (the pagetable idiom), so the per-epoch fold
	// sweeps canonically without rebuilding and sorting the page list
	// every barrier generation.
	order  []Page
	epoch  int
	epochs []EpochProfile
	// folding guards against nested epoch folds: the migration handshakes
	// block the folding barrier handler, and another cluster-wide barrier
	// generation completing in that window must not fold concurrently —
	// it skips, and the evidence folds at the next boundary.
	folding bool
}

// EnableProfiler switches the access-pattern profiler on, with its decision
// engine: at cluster-wide barrier boundaries, pages whose classification
// names a dominant writer other than their home are re-homed onto that writer
// (see migrate.go). Call it before Run; pages allocated earlier are adopted
// here, later ones at allocation. Calling it again restarts the evidence from
// scratch.
func (d *DSM) EnableProfiler() {
	already := d.prof != nil
	d.prof = &profilerState{
		nodes: d.rt.Nodes(),
		pages: make(map[Page]*pageProfile),
	}
	for _, pg := range d.sortedPages() {
		d.prof.track(pg)
	}
	// The migration services are registered lazily, so a profiler-off system
	// carries none, and exactly once, which keeps re-enabling from tripping
	// the duplicate-service panic.
	if !already {
		d.registerMigrateServices()
	}
}

// ProfilerEnabled reports whether the profiler is on.
func (d *DSM) ProfilerEnabled() bool { return d.prof != nil }

// ProfileEpochs returns the per-epoch classification histograms recorded so
// far (nil when the profiler is off).
func (d *DSM) ProfileEpochs() []EpochProfile {
	if d.prof == nil {
		return nil
	}
	return append([]EpochProfile(nil), d.prof.epochs...)
}

// PageClassOf returns the page's sharing class and dominant writer from the
// last folded epoch (ClassIdle, -1 before the first epoch or when the
// profiler is off). This is the classifier protocols consume — see
// protolib's Classification.
func (d *DSM) PageClassOf(pg Page) (PageClass, int) {
	if d.prof == nil {
		return ClassIdle, -1
	}
	pp := d.prof.pages[pg]
	if pp == nil {
		return ClassIdle, -1
	}
	return pp.class, pp.writer
}

// track adopts a page into the profiler, allocating its counter slots once.
func (p *profilerState) track(pg Page) {
	if _, ok := p.pages[pg]; ok {
		return
	}
	// Until its first fold a page is idle with no writer: a zero writer would
	// name node 0 the dominant writer of an idle page.
	pp := &pageProfile{counts: make([]pageCounters, p.nodes), writer: -1, pref: -1}
	p.pages[pg] = pp
	i := sort.Search(len(p.order), func(i int) bool { return p.order[i] >= pg })
	p.order = append(p.order, 0)
	copy(p.order[i+1:], p.order[i:])
	p.order[i] = pg
}

// profFault records a read or write fault taken on node for pg. Allocation
// free: one map lookup, one increment. Like its siblings below, safe to
// call with the profiler off.
func (d *DSM) profFault(node int, pg Page, write bool) {
	if d.prof == nil {
		return
	}
	pp := d.prof.pages[pg]
	if pp == nil {
		return
	}
	if write {
		pp.counts[node].writes++
	} else {
		pp.counts[node].reads++
	}
}

// profFetch records a page request sent by node toward dest and keeps the
// placement counters: every off-node request is a remote fetch, and one sent
// by the page's preferred home (the profiler's dominant writer) while the
// page is homed elsewhere is a misplaced fetch — the traffic home migration
// exists to remove.
func (d *DSM) profFetch(node int, pg Page, dest int) {
	if dest != node {
		d.stats.RemoteFetches++
	}
	if d.prof == nil {
		return
	}
	pp := d.prof.pages[pg]
	if pp == nil {
		return
	}
	pp.counts[node].fetches++
	if pi, ok := d.dir[pg]; ok && pp.pref == node && pi.home != node {
		d.stats.MisplacedFetches++
	}
}

// profDiff records one diff shipped by node for pg.
func (d *DSM) profDiff(node int, pg Page) {
	if d.prof == nil {
		return
	}
	pp := d.prof.pages[pg]
	if pp == nil {
		return
	}
	pp.counts[node].diffs++
}

// classifyCounters is the pure classification function: given one epoch's
// per-node counters, name the sharing pattern and the dominant writer (-1
// when the class has none). Ties on write counts go to the lowest node id,
// keeping the verdict independent of update arrival order.
func classifyCounters(counts []pageCounters) (PageClass, int) {
	writers, readers, diffWriters := 0, 0, 0
	writer, maxWrites := -1, uint32(0)
	onlyNode := -1
	touched := 0
	for n := range counts {
		c := &counts[n]
		if c.reads == 0 && c.writes == 0 && c.fetches == 0 && c.diffs == 0 {
			continue
		}
		touched++
		onlyNode = n
		if c.reads > 0 {
			readers++
		}
		if c.writes > 0 {
			writers++
			if c.writes > maxWrites {
				maxWrites = c.writes
				writer = n
			}
		}
		if c.diffs > 0 {
			diffWriters++
		}
	}
	switch {
	case touched == 0:
		return ClassIdle, -1
	case writers == 0:
		return ClassReadShared, -1
	case touched == 1:
		return ClassPrivate, onlyNode
	case writers == 1:
		return ClassProducerConsumer, writer
	case diffWriters >= 2:
		// Concurrent writers under a multiple-writer protocol: each epoch
		// both shipped diffs for the page. Placement still matters — the
		// busiest writer saves the most diff traffic as home.
		return ClassFalselyShared, writer
	default:
		return ClassMigratory, -1
	}
}

// migratable reports whether a class justifies re-homing onto its dominant
// writer. Migratory pages have no stable writer (thread migration is the
// right mechanism there — the adaptive protocol's business), and read-shared
// pages are served by replication wherever they live.
func migratable(c PageClass) bool {
	return c == ClassPrivate || c == ClassProducerConsumer || c == ClassFalselyShared
}

// migCandidate is one page the epoch fold nominated for re-homing.
type migCandidate struct {
	pg     Page
	writer int
}

// foldEpoch closes the current epoch: classify every page from its counters,
// keep the verdict as the page's last, update preferred-home and stability
// state, reset the counters in place (no allocation), and return the pages
// whose evidence justifies a home migration — in ascending page order, so
// the decision sequence is canonical. The caller (the barrier manager)
// performs the migrations and appends the epoch histogram via closeEpoch.
func (d *DSM) foldEpoch() (EpochProfile, []migCandidate) {
	p := d.prof
	ep := EpochProfile{Epoch: p.epoch}
	var cands []migCandidate
	for _, pg := range p.order {
		pp := p.pages[pg]
		if pp == nil {
			continue
		}
		class, writer := classifyCounters(pp.counts)
		pp.class, pp.writer = class, writer
		ep.bump(class)
		switch {
		case writer >= 0 && writer == pp.pref:
			pp.stable++
		case writer >= 0:
			pp.stable = 1
			pp.pref = writer
		case class == ClassMigratory:
			// Several writers with no dominant one: active evidence against
			// the held preference.
			pp.stable = 0
			pp.pref = -1
		default:
			// Idle or read-only epoch: no writer evidence either way. Hold
			// the preference — double-buffered workloads write each buffer
			// every other epoch, and resetting here would keep them from
			// ever looking stable.
		}
		for n := range pp.counts {
			pp.counts[n] = pageCounters{}
		}
		if pi, ok := d.dir[pg]; ok && migratable(class) &&
			writer >= 0 && pp.stable >= DefaultStability && pi.home != writer {
			cands = append(cands, migCandidate{pg: pg, writer: writer})
		}
	}
	p.epoch++
	return ep, cands
}

// closeEpoch records the folded epoch's histogram.
func (d *DSM) closeEpoch(ep EpochProfile) {
	d.prof.epochs = append(d.prof.epochs, ep)
}

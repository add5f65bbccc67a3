// Package kvstore implements a serving-scale key/value store over DSM-PM2:
// a hash table sharded over isomalloc pages (one bucket per page, guarded by
// a per-bucket entry-consistency lock), driven by an open-loop deterministic
// traffic generator — seeded Poisson arrivals, Zipf-skewed keys, a
// configurable read/write mix, and time-varying hot-key churn phases.
//
// Unlike the barrier-phased SPLASH-style kernels (jacobi, lu, matmul), the
// interesting output here is not a checksum but the latency *distribution*:
// every operation's completion time relative to its scheduled arrival is
// recorded into the core's fixed-grid histograms (System.OpHist), so p50/p95
// and p99 per operation kind are deterministic, snapshot-safe, and
// bit-identical across replays of one seed. The generator is open-loop on
// purpose: arrivals do not wait for completions, so a placement that slows
// the servers shows up as queueing delay in the tail — exactly the signal
// the static-vs-adaptive home-placement experiment (`dsmbench -exp serve`)
// is after.
package kvstore

import (
	"fmt"
	"math/rand"
	"sort"

	"dsmpm2"
	"dsmpm2/internal/sim"
)

// slotsPerBucket is how many 8-byte values fit in one bucket page.
const slotsPerBucket = dsmpm2.PageSize / 8

// Config parameterizes a run.
type Config struct {
	// Nodes is the cluster size; bucket b is served by node b % Nodes.
	Nodes int
	// Buckets is the hash-table width: one shared page (and one
	// entry-consistency lock) per bucket. Key k lives in bucket
	// k % Buckets, slot k / Buckets.
	Buckets int
	// Keys is the key-space size; at most Buckets * 512 (one page of
	// 8-byte slots per bucket).
	Keys int
	// Requests is the total operation count of the trace.
	Requests int
	// Epochs divides the trace into barrier-separated segments: after each
	// segment all servers and the generator meet at a cluster-wide
	// barrier, which is where the profiler folds its evidence and (with
	// AdaptiveHomes) re-homes pages.
	Epochs int
	// Phases is the number of hot-key churn phases: each phase remaps the
	// Zipf ranks onto keys with a fresh seeded permutation, so the hot set
	// moves mid-run and placement must adapt.
	Phases int
	// ReadFraction is the probability a request is a get (default 0.9).
	ReadFraction float64
	// ZipfS is the Zipf skew parameter (> 1; default 1.3).
	ZipfS float64
	// MeanInterarrival is the mean of the exponential inter-arrival time
	// (open-loop Poisson process). The default 100us puts a misplaced
	// static placement at the queueing knee (remote serves cost ~200us)
	// while locally-homed buckets (~20us) stay comfortable.
	MeanInterarrival dsmpm2.Duration
	// ServeCost is the CPU cost charged per served operation.
	ServeCost dsmpm2.Duration
	// Deadline, when non-zero, drops requests that are already older than
	// this when dequeued: their queue wait is recorded under the "drop"
	// kind instead of being served. The serial checksum oracle assumes
	// Deadline == 0 (every put applied).
	Deadline dsmpm2.Duration
	// IdleTick is the server's receive timeout while idle (default 200us);
	// it bounds how long a server sleeps between polls and exercises the
	// timed-wait path at volume.
	IdleTick dsmpm2.Duration
	// TopN is how many hot keys to report (default 5).
	TopN int

	// Network selects the interconnect; Topology overrides it per-link.
	Network  *dsmpm2.NetworkProfile
	Topology dsmpm2.Topology
	// Protocol is the consistency protocol (default entry_mw — the store
	// is built around per-bucket lock binding).
	Protocol string
	// Seed drives both the trace generator and the simulation.
	Seed int64
	// MisplaceHomes homes every bucket page on node 0 instead of on its
	// serving node — the deliberately bad static placement the serve
	// experiment starts from.
	MisplaceHomes bool
	// AdaptiveHomes enables the access-pattern profiler and dynamic home
	// migration: misplaced buckets move onto their servers at the epoch
	// barriers.
	AdaptiveHomes bool
}

// withDefaults returns cfg with zero fields defaulted and validates it.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 16
	}
	if cfg.Keys == 0 {
		cfg.Keys = 512
	}
	if cfg.Requests == 0 {
		cfg.Requests = 1200
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 8
	}
	if cfg.Phases == 0 {
		cfg.Phases = 2
	}
	if cfg.ReadFraction == 0 {
		cfg.ReadFraction = 0.9
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.3
	}
	if cfg.MeanInterarrival == 0 {
		cfg.MeanInterarrival = 100 * dsmpm2.Microsecond
	}
	if cfg.ServeCost == 0 {
		cfg.ServeCost = 5 * dsmpm2.Microsecond
	}
	if cfg.IdleTick == 0 {
		cfg.IdleTick = 200 * dsmpm2.Microsecond
	}
	if cfg.TopN == 0 {
		cfg.TopN = 5
	}
	if cfg.Protocol == "" {
		cfg.Protocol = "entry_mw"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	switch {
	case cfg.Nodes < 1:
		return cfg, fmt.Errorf("kvstore: invalid node count %d", cfg.Nodes)
	case cfg.Buckets < 1:
		return cfg, fmt.Errorf("kvstore: invalid bucket count %d", cfg.Buckets)
	case cfg.Keys < 1 || cfg.Keys > cfg.Buckets*slotsPerBucket:
		return cfg, fmt.Errorf("kvstore: key space %d outside [1, %d] for %d buckets",
			cfg.Keys, cfg.Buckets*slotsPerBucket, cfg.Buckets)
	case cfg.Requests < 1:
		return cfg, fmt.Errorf("kvstore: invalid request count %d", cfg.Requests)
	case cfg.Epochs < 1 || cfg.Phases < 1:
		return cfg, fmt.Errorf("kvstore: epochs (%d) and phases (%d) must be positive",
			cfg.Epochs, cfg.Phases)
	case cfg.ZipfS <= 1:
		return cfg, fmt.Errorf("kvstore: Zipf skew %v must exceed 1", cfg.ZipfS)
	case cfg.ReadFraction < 0 || cfg.ReadFraction > 1:
		return cfg, fmt.Errorf("kvstore: read fraction %v outside [0, 1]", cfg.ReadFraction)
	}
	return cfg, nil
}

// request is one traced operation. Offsets are relative to the start of the
// serving run; the generator converts them to absolute virtual times.
type request struct {
	off dsmpm2.Duration // scheduled arrival, offset from run start
	key int
	put bool
	val uint64
	at  dsmpm2.Time // absolute arrival, stamped by the generator
}

// epochMark tells a server to meet the cluster at the epoch barrier.
type epochMark struct{}

// stopMark tells a server the trace is over.
type stopMark struct{}

// trace is the fully precomputed workload: requests in arrival order plus
// the per-key request tally (the hot-key report's input). It is a pure
// function of the Config, computed in plain Go before the simulation starts,
// so every run of one seed serves the identical operation sequence.
type trace struct {
	reqs   []request
	perKey []int64
}

// genTrace builds the trace: Poisson arrivals (exponential inter-arrival
// gaps), Zipf-ranked keys remapped through a fresh permutation each churn
// phase, and a seeded read/write mix.
func genTrace(cfg Config) trace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
	tr := trace{
		reqs:   make([]request, 0, cfg.Requests),
		perKey: make([]int64, cfg.Keys),
	}
	perm := rng.Perm(cfg.Keys)
	phase := 0
	var at dsmpm2.Duration
	for i := 0; i < cfg.Requests; i++ {
		if p := i * cfg.Phases / cfg.Requests; p != phase {
			phase = p
			perm = rng.Perm(cfg.Keys)
		}
		at += dsmpm2.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		key := perm[zipf.Uint64()]
		tr.perKey[key]++
		tr.reqs = append(tr.reqs, request{
			off: at,
			key: key,
			put: rng.Float64() >= cfg.ReadFraction,
			val: rng.Uint64(),
		})
	}
	return tr
}

// bucketOf and slotOf place key k: bucket k % Buckets, slot k / Buckets.
func bucketOf(k, buckets int) int { return k % buckets }
func slotOf(k, buckets int) int   { return k / buckets }

// mixChecksum folds the final key/value table into one order-independent
// checksum (shared by the DSM run and the serial oracle).
func mixChecksum(sum uint64, key int, val uint64) uint64 {
	return sum + (val^uint64(key)*0x9E3779B97F4A7C15)*2654435761
}

// HotKey is one entry of the hot-key report.
type HotKey struct {
	Key   int   `json:"key"`
	Count int64 `json:"count"`
}

// topKeys returns the n busiest keys by request count (ties to the lower
// key, so the report is canonical).
func topKeys(perKey []int64, n int) []HotKey {
	hot := make([]HotKey, 0, len(perKey))
	for k, c := range perKey {
		if c > 0 {
			hot = append(hot, HotKey{Key: k, Count: c})
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Count != hot[j].Count {
			return hot[i].Count > hot[j].Count
		}
		return hot[i].Key < hot[j].Key
	})
	if len(hot) > n {
		hot = hot[:n]
	}
	return hot
}

// OpSummary is the per-operation-kind latency digest extracted from the
// core histograms: deterministic grid-valued quantiles plus exact mean/max.
type OpSummary struct {
	Kind  string          `json:"kind"`
	Count int64           `json:"count"`
	P50   dsmpm2.Duration `json:"p50_ns"`
	P95   dsmpm2.Duration `json:"p95_ns"`
	P99   dsmpm2.Duration `json:"p99_ns"`
	Mean  dsmpm2.Duration `json:"mean_ns"`
	Max   dsmpm2.Duration `json:"max_ns"`
}

// KeyLatency is the served-latency digest of one hot key. Count is the
// number of served (not dropped) requests for the key, so under a deadline
// it can fall short of the trace's request tally for that key.
type KeyLatency struct {
	Key int `json:"key"`
	dsmpm2.HistSummary
}

// Result reports a run's outcome.
type Result struct {
	// Checksum folds the final key/value table; it must match ServeSerial
	// when Deadline is zero.
	Checksum uint64
	Elapsed  dsmpm2.Time
	Stats    dsmpm2.Stats
	System   *dsmpm2.System
	// Ops summarizes the per-kind latency histograms in sorted kind order
	// ("get", "put", and "drop" when a deadline is set).
	Ops []OpSummary
	// HotKeys are the TopN busiest keys of the trace.
	HotKeys []HotKey
	// PerKey is the served-latency digest of each hot key, in HotKeys order.
	PerKey []KeyLatency
	// Served and Dropped count completed and deadline-dropped requests;
	// IdleTicks counts server receive timeouts (idle polls).
	Served    int64
	Dropped   int64
	IdleTicks int64
}

// Op returns the summary for kind (zero OpSummary if absent).
func (r Result) Op(kind string) OpSummary {
	for _, o := range r.Ops {
		if o.Kind == kind {
			return o
		}
	}
	return OpSummary{}
}

// ServeSerial replays the trace in plain Go and returns the oracle checksum
// and hot-key report. Valid for Deadline == 0 configs: the store serializes
// all requests for a key through one bucket lock on one server's FIFO
// queue, so the final table state is the trace's last-put-wins fold.
func ServeSerial(cfg Config) (uint64, []HotKey, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return 0, nil, err
	}
	tr := genTrace(cfg)
	table := make([]uint64, cfg.Keys)
	for _, r := range tr.reqs {
		if r.put {
			table[r.key] = r.val
		}
	}
	var sum uint64
	for k, v := range table {
		sum = mixChecksum(sum, k, v)
	}
	return sum, topKeys(tr.perKey, cfg.TopN), nil
}

// Run executes the store under simulation and returns the result.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	sys, err := dsmpm2.New(dsmpm2.Config{
		Nodes:         cfg.Nodes,
		Network:       cfg.Network,
		Topology:      cfg.Topology,
		Protocol:      cfg.Protocol,
		Seed:          cfg.Seed,
		AdaptiveHomes: cfg.AdaptiveHomes,
	})
	if err != nil {
		return Result{}, err
	}
	tr := genTrace(cfg)

	// One page and one bound lock per bucket. The lock is always managed by
	// the serving node; the page is homed there too unless MisplaceHomes
	// parks it on node 0 (the static placement the adapt experiment fixes).
	pages := make([]dsmpm2.Addr, cfg.Buckets)
	locks := make([]int, cfg.Buckets)
	for b := 0; b < cfg.Buckets; b++ {
		server := b % cfg.Nodes
		attr := &dsmpm2.Attr{Protocol: -1, Home: server}
		if cfg.MisplaceHomes {
			attr.Home = 0
		}
		pages[b] = sys.MustMalloc(server, dsmpm2.PageSize, attr)
		locks[b] = sys.NewLock(server)
		sys.BindLock(locks[b], pages[b], dsmpm2.PageSize)
	}

	// Request routing: per-server FIFO queues, an epoch barrier spanning
	// the servers plus the generator (one participant per node, so the
	// profiler folds and migrates at each epoch boundary).
	queues := make([]*sim.Chan, cfg.Nodes)
	for i := range queues {
		queues[i] = new(sim.Chan)
	}
	bar := sys.NewBarrier(cfg.Nodes + 1)

	res := Result{System: sys}
	// Per-key latency for the trace's hot set. The hot keys are a pure
	// function of the trace, so the set is known before the run.
	hot := topKeys(tr.perKey, cfg.TopN)
	hotIdx := make(map[int]int, len(hot))
	for i, hk := range hot {
		hotIdx[hk.Key] = i
	}
	keyHists := make([]dsmpm2.Histogram, len(hot))
	getHist := sys.OpHist("get")
	putHist := sys.OpHist("put")
	var dropHist *dsmpm2.Histogram
	if cfg.Deadline > 0 {
		dropHist = sys.OpHist("drop")
	}

	// The open-loop generator: sleep to each scheduled arrival, stamp the
	// absolute time, and push to the serving node's queue. Epoch marks are
	// emitted every Requests/Epochs operations and at the end of the trace.
	sys.Spawn(0, "loadgen", func(t *dsmpm2.Thread) {
		start := t.Now()
		nextMark := 1
		for i := range tr.reqs {
			// The queue carries a pointer into this run's own trace: no
			// copy is boxed per request, and at belongs to this run alone.
			r := &tr.reqs[i]
			due := start.Add(r.off)
			if d := due.Sub(t.Now()); d > 0 {
				t.Sleep(d)
			}
			r.at = due
			queues[bucketOf(r.key, cfg.Buckets)%cfg.Nodes].Push(r)
			if (i+1)*cfg.Epochs >= nextMark*cfg.Requests {
				for _, q := range queues {
					q.Push(epochMark{})
				}
				t.Barrier(bar)
				nextMark++
			}
		}
		for _, q := range queues {
			q.Push(stopMark{})
		}
	})

	for node := 0; node < cfg.Nodes; node++ {
		node := node
		sys.Spawn(node, fmt.Sprintf("server%d", node), func(t *dsmpm2.Thread) {
			proc := t.PM2().Proc()
			q := queues[node]
			for {
				v, ok := q.RecvTimeout(proc, sim.Duration(cfg.IdleTick))
				if !ok {
					res.IdleTicks++ // idle poll
					continue
				}
				switch m := v.(type) {
				case stopMark:
					return
				case epochMark:
					t.Barrier(bar)
				case *request:
					if cfg.Deadline > 0 && t.Now().Sub(m.at) > cfg.Deadline {
						dropHist.Record(t.Now().Sub(m.at))
						res.Dropped++
						continue
					}
					b := bucketOf(m.key, cfg.Buckets)
					addr := pages[b] + dsmpm2.Addr(8*slotOf(m.key, cfg.Buckets))
					t.Acquire(locks[b])
					if m.put {
						t.WriteUint64(addr, m.val)
					} else {
						t.ReadUint64(addr)
					}
					t.Compute(cfg.ServeCost)
					t.Release(locks[b])
					if m.put {
						putHist.Record(t.Now().Sub(m.at))
					} else {
						getHist.Record(t.Now().Sub(m.at))
					}
					if hi, ok := hotIdx[m.key]; ok {
						keyHists[hi].Record(t.Now().Sub(m.at))
					}
					res.Served++
				}
			}
		})
	}
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	res.Elapsed = sys.Now()

	// Read the final table back through the DSM from node 0, under the
	// bucket locks, and fold the oracle checksum.
	sys.Spawn(0, "checksum", func(t *dsmpm2.Thread) {
		var sum uint64
		for k := 0; k < cfg.Keys; k++ {
			b := bucketOf(k, cfg.Buckets)
			t.Acquire(locks[b])
			v := t.ReadUint64(pages[b] + dsmpm2.Addr(8*slotOf(k, cfg.Buckets)))
			t.Release(locks[b])
			sum = mixChecksum(sum, k, v)
		}
		res.Checksum = sum
	})
	if err := sys.Run(); err != nil {
		return Result{}, err
	}

	res.Stats = sys.Stats()
	res.HotKeys = hot
	for _, kind := range sys.OpKinds() {
		h := sys.OpHist(kind).Snapshot()
		s := h.Summarize()
		res.Ops = append(res.Ops, OpSummary{
			Kind:  kind,
			Count: s.Count,
			P50:   s.P50,
			P95:   s.P95,
			P99:   s.P99,
			Mean:  s.Mean,
			Max:   s.Max,
		})
	}
	for i, hk := range hot {
		res.PerKey = append(res.PerKey, KeyLatency{Key: hk.Key, HistSummary: keyHists[i].Summarize()})
	}
	return res, nil
}

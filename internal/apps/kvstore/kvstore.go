// Package kvstore implements a serving-scale key/value store over DSM-PM2:
// a hash table sharded over isomalloc pages (one bucket per page, guarded by
// a per-bucket entry-consistency lock), driven by an open-loop deterministic
// traffic generator — seeded Poisson arrivals, Zipf-skewed keys, a
// configurable read/write mix, and time-varying hot-key churn phases — that
// draws each request when it falls due, so a run holds its keys and its
// backlog, not its whole request stream.
//
// Unlike the barrier-phased SPLASH-style kernels (jacobi, lu, matmul), the
// interesting output here is not a checksum but the latency *distribution*:
// every operation's completion time relative to its scheduled arrival is
// recorded into a fixed-grid histogram per operation kind (dsmpm2.Histogram),
// so p50/p95 and p99 per kind are deterministic, snapshot-safe, and
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
)

// slotsPerBucket is how many 8-byte values fit in one bucket page.
const slotsPerBucket = dsmpm2.PageSize / 8

// The store's fixed parameters.
const (
	// zipfS is the Zipf skew of the key popularity.
	zipfS = 1.3
	// serveCost is the CPU cost charged per served operation.
	serveCost = 5 * dsmpm2.Microsecond
	// hotKeyCount is how many hot keys Result.HotKeys reports.
	hotKeyCount = 5
)

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
	// Requests is the total operation count of the stream.
	Requests int
	// Epochs divides the stream into barrier-separated segments: after each
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
	// MeanInterarrival is the mean of the exponential inter-arrival time
	// (open-loop Poisson process). The default 100us puts a misplaced
	// static placement at the queueing knee (remote serves cost ~200us)
	// while locally-homed buckets (~20us) stay comfortable.
	MeanInterarrival dsmpm2.Duration
	// Deadline, when non-zero, drops requests that are already older than
	// this when dequeued: their queue wait is recorded under the "drop"
	// kind instead of being served. The serial checksum oracle assumes
	// Deadline == 0 (every put applied).
	Deadline dsmpm2.Duration

	// Network selects the interconnect: a profile or a per-link topology.
	Network dsmpm2.Topology
	// Protocol is the consistency protocol (default entry_mw — the store
	// is built around per-bucket lock binding).
	Protocol string
	// Seed drives both the request generator and the simulation.
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
	if cfg.MeanInterarrival == 0 {
		cfg.MeanInterarrival = 100 * dsmpm2.Microsecond
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
	case cfg.ReadFraction < 0 || cfg.ReadFraction > 1:
		return cfg, fmt.Errorf("kvstore: read fraction %v outside [0, 1]", cfg.ReadFraction)
	}
	return cfg, nil
}

// request is one operation of the stream, filled by the load generator when
// it falls due and handed back to the pool by the server that recorded its
// latency.
type request struct {
	key int
	put bool
	val uint64
	at  dsmpm2.Time // absolute arrival, stamped by the generator
}

// epochMark tells a server to meet the cluster at the epoch barrier.
type epochMark struct{}

// stopMark tells a server the stream is over.
type stopMark struct{}

// arrivals draws the request stream one request at a time: Poisson arrivals
// (exponential inter-arrival gaps), Zipf-ranked keys remapped through a fresh
// permutation each churn phase, and a seeded read/write mix. It is a pure
// function of the Config, so every generator of one seed yields the identical
// operation sequence, and it holds one permutation, whatever the run's length.
type arrivals struct {
	cfg   Config
	rng   *rand.Rand
	zipf  *rand.Zipf
	perm  []int // Zipf rank -> key, redrawn each churn phase
	phase int
	i     int             // requests drawn so far
	off   dsmpm2.Duration // the last arrival's offset from the run start
}

func newArrivals(cfg Config) *arrivals {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &arrivals{cfg: cfg, rng: rng,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(cfg.Keys-1)),
		perm: make([]int, cfg.Keys)}
	g.shuffle()
	return g
}

// shuffle redraws perm in place with rand.Perm's own loop, so the stream
// matches a fresh rng.Perm(Keys) draw for draw.
func (g *arrivals) shuffle() {
	for i := range g.perm {
		j := g.rng.Intn(i + 1)
		g.perm[i] = g.perm[j]
		g.perm[j] = i
	}
}

// next fills r with the next request and returns its scheduled arrival as an
// offset from the start of the serving run. It must be called at most
// cfg.Requests times.
func (g *arrivals) next(r *request) dsmpm2.Duration {
	cfg := g.cfg
	if p := g.i * cfg.Phases / cfg.Requests; p != g.phase {
		g.phase = p
		g.shuffle()
	}
	g.i++
	g.off += dsmpm2.Duration(g.rng.ExpFloat64() * float64(cfg.MeanInterarrival))
	r.key = g.perm[g.zipf.Uint64()]
	r.put = g.rng.Float64() >= cfg.ReadFraction
	r.val = g.rng.Uint64()
	return g.off
}

// requestChunk is how many request records one allocation of the pool makes.
const requestChunk = 64

// requestPool recycles request records: a record lives from the generator's
// push to the server's latency record, so the pool holds as many as the
// run's peak backlog, carved requestChunk at a time.
type requestPool struct {
	free  []*request
	chunk []request // the uncarved rest of the last chunk
}

func (p *requestPool) get() *request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	if len(p.chunk) == 0 {
		p.chunk = make([]request, requestChunk)
	}
	r := &p.chunk[0]
	p.chunk = p.chunk[1:]
	return r
}

func (p *requestPool) put(r *request) { p.free = append(p.free, r) }

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
	Kind string `json:"kind"`
	dsmpm2.HistSummary
}

// KeyLatency is the served-latency digest of one hot key. Count is the
// number of served (not dropped) requests for the key, so under a deadline
// it can fall short of the stream's request tally for that key.
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
	// HotKeys are the hotKeyCount busiest keys of the stream.
	HotKeys []HotKey
	// PerKey is the served-latency digest of each hot key, in HotKeys order.
	PerKey []KeyLatency
	// Served and Dropped count completed and deadline-dropped requests.
	Served  int64
	Dropped int64
	// lastStop is the instant the last server took its stop mark.
	lastStop dsmpm2.Time
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

// ServeSerial replays the stream in plain Go and returns the oracle checksum
// and hot-key report. Valid for Deadline == 0 configs: the store serializes
// all requests for a key through one bucket lock on one server's FIFO
// queue, so the final table state is the stream's last-put-wins fold.
func ServeSerial(cfg Config) (uint64, []HotKey, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return 0, nil, err
	}
	table := make([]uint64, cfg.Keys)
	perKey := make([]int64, cfg.Keys)
	g := newArrivals(cfg)
	var r request
	for range cfg.Requests {
		g.next(&r)
		perKey[r.key]++
		if r.put {
			table[r.key] = r.val
		}
	}
	var sum uint64
	for k, v := range table {
		sum = mixChecksum(sum, k, v)
	}
	return sum, topKeys(perKey, hotKeyCount), nil
}

// countKeys tallies the requests per key of cfg's stream, drawn by a
// generator of its own: the hot-key report's input.
func countKeys(cfg Config) []int64 {
	perKey := make([]int64, cfg.Keys)
	g := newArrivals(cfg)
	var r request
	for range cfg.Requests {
		g.next(&r)
		perKey[r.key]++
	}
	return perKey
}

// opHist is one operation kind's latency histogram.
type opHist struct {
	kind string
	dsmpm2.Histogram
}

// Run executes the store under simulation and returns the result.
func Run(cfg Config) (Result, error) {
	res, _, err := run(cfg)
	return res, err
}

// run is Run, also returning the latency histograms it recorded, in report
// order: drop (only when a deadline is set), get and put.
func run(cfg Config) (Result, []*opHist, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, nil, err
	}
	sys, err := dsmpm2.New(dsmpm2.Config{
		Nodes:         cfg.Nodes,
		Network:       cfg.Network,
		Protocol:      cfg.Protocol,
		Seed:          cfg.Seed,
		AdaptiveHomes: cfg.AdaptiveHomes,
	})
	if err != nil {
		return Result{}, nil, err
	}
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
	queues := make([]*dsmpm2.Queue, cfg.Nodes)
	for i := range queues {
		queues[i] = new(dsmpm2.Queue)
	}
	bar := sys.NewBarrier(cfg.Nodes + 1)

	res := Result{System: sys}
	// Per-key latency for the stream's hot set. The hot keys are a pure
	// function of the Config, so a counting pass of a second generator finds
	// them before the run.
	hot := topKeys(countKeys(cfg), hotKeyCount)
	hotIdx := make(map[int]int, len(hot))
	for i, hk := range hot {
		hotIdx[hk.Key] = i
	}
	keyHists := make([]dsmpm2.Histogram, len(hot))
	getHist, putHist := &opHist{kind: "get"}, &opHist{kind: "put"}
	hists := []*opHist{getHist, putHist}
	var dropHist *opHist
	if cfg.Deadline > 0 {
		dropHist = &opHist{kind: "drop"}
		hists = []*opHist{dropHist, getHist, putHist}
	}

	// The open-loop generator: draw each request, sleep to its scheduled
	// arrival, stamp the absolute time, and push it to the serving node's
	// queue. Epoch marks are emitted every Requests/Epochs operations and at
	// the end of the stream. The queue carries a pooled record, which the
	// server hands back once it has recorded the latency.
	var pool requestPool
	sys.Spawn(0, "loadgen", func(t *dsmpm2.Thread) {
		gen := newArrivals(cfg)
		start := t.Now()
		nextMark := 1
		for i := range cfg.Requests {
			r := pool.get()
			due := start.Add(gen.next(r))
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
			q := queues[node]
			for {
				switch m := q.Recv(t).(type) {
				case stopMark:
					res.lastStop = t.Now()
					return
				case epochMark:
					t.Barrier(bar)
				case *request:
					if cfg.Deadline > 0 && t.Now().Sub(m.at) > cfg.Deadline {
						dropHist.Record(t.Now().Sub(m.at))
						res.Dropped++
						pool.put(m)
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
					t.Compute(serveCost)
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
					pool.put(m)
				}
			}
		})
	}
	if err := sys.Run(); err != nil {
		return Result{}, nil, err
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
		return Result{}, nil, err
	}

	res.Stats = sys.Stats()
	res.HotKeys = hot
	for _, h := range hists {
		res.Ops = append(res.Ops, OpSummary{Kind: h.kind, HistSummary: h.Summarize()})
	}
	for i, hk := range hot {
		res.PerKey = append(res.PerKey, KeyLatency{Key: hk.Key, HistSummary: keyHists[i].Summarize()})
	}
	return res, hists, nil
}

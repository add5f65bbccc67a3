package dsmpm2_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"dsmpm2"
)

// fuzzSeedBodies returns the bodies of three small checkpoints that between
// them fill every section a body has: pages, entries and a lock; the
// profiler's rings; and a fault layer, its plan cursor and recovery state.
func fuzzSeedBodies(f testing.TB) [][]byte {
	f.Helper()
	build := func(cfg dsmpm2.Config, plan *dsmpm2.FaultPlan) []byte {
		sys := dsmpm2.MustNew(cfg)
		if err := sys.InjectFaults(plan, dsmpm2.FaultOptions{}); err != nil {
			f.Fatal(err)
		}
		page := sys.MustMalloc(1, dsmpm2.PageSize, nil)
		lock, bar := sys.NewLock(0), sys.NewBarrier(cfg.Nodes)
		for n := 0; n < cfg.Nodes; n++ {
			sys.Spawn(n, "w", func(t *dsmpm2.Thread) {
				t.Acquire(lock)
				t.WriteUint64(page+dsmpm2.Addr(8*n), uint64(n+1))
				t.Release(lock)
				t.Barrier(bar)
			})
		}
		if err := sys.Run(); err != nil {
			f.Fatal(err)
		}
		ck, err := sys.Checkpoint([]byte(`{"unit":1}`))
		if err != nil {
			f.Fatal(err)
		}
		body, err := json.Marshal(ck)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	return [][]byte{
		build(dsmpm2.Config{Nodes: 2, Protocol: "hbrc_mw"}, nil),
		build(dsmpm2.Config{Nodes: 2, Protocol: "li_hudak", AdaptiveHomes: true}, nil),
		build(dsmpm2.Config{Nodes: 3, Protocol: "hbrc_mw"},
			dsmpm2.NewFaultPlan(5).Loss(0, 1, 2, 0.5, 0).Crash(dsmpm2.Time(10*dsmpm2.Second), 2)),
	}
}

// number matches the JSON numbers a body's fields hold.
var number = regexp.MustCompile(`-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?`)

// FuzzCheckpointBody: a checkpoint body of arbitrary bytes, under a valid
// version and hash so it gets past the envelope, is refused by
// DecodeCheckpoint or Restore with an error, never a panic. Besides the
// fuzzer's byte edits, each input sets one number of the body (the at-th,
// cyclically) to v, which reaches the range checks much faster than byte
// edits that mostly break the JSON. Restore's shape checks keep what it
// allocates proportional to the body, so the inputs stay small machines.
func FuzzCheckpointBody(f *testing.F) {
	for _, body := range fuzzSeedBodies(f) {
		f.Add(body, uint16(0), int64(0))
	}
	f.Fuzz(func(t *testing.T, body []byte, at uint16, v int64) {
		if locs := number.FindAllIndex(body, -1); len(locs) > 0 {
			l := locs[int(at)%len(locs)]
			body = slices.Concat(body[:l[0]], strconv.AppendInt(nil, v, 10), body[l[1]:])
		}
		// The envelope carries its body compacted, so the hash is of that.
		var compact bytes.Buffer
		if json.Compact(&compact, body) != nil {
			return // not JSON: the envelope cannot even carry it
		}
		sum := sha256.Sum256(compact.Bytes())
		data, err := json.Marshal(struct {
			Version int             `json:"version"`
			SHA256  string          `json:"sha256"`
			Body    json.RawMessage `json:"body"`
		}{dsmpm2.CheckpointVersion, hex.EncodeToString(sum[:]), compact.Bytes()})
		if err != nil {
			t.Fatal(err)
		}
		ck, err := dsmpm2.DecodeCheckpoint(data)
		if err != nil {
			return
		}
		_, _ = dsmpm2.Restore(ck, dsmpm2.RestoreOptions{})
	})
}

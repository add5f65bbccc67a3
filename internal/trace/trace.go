// Package trace implements DSM-PM2's post-mortem monitoring support: "very
// precise post-mortem monitoring tools are available in the PM2 platform,
// providing the user with valuable information on the time spent within each
// elementary function" (Section 4).
//
// The runtime records spans — named intervals of virtual time attributed to
// a node and thread — into an in-memory log; after the run the log can be
// aggregated into a per-function time breakdown or exported as JSON for the
// dsmtrace analyzer.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"dsmpm2/internal/sim"
)

// Span is one timed invocation of an elementary function.
type Span struct {
	Name   string   `json:"name"`
	Node   int      `json:"node"`
	Thread string   `json:"thread"`
	Start  sim.Time `json:"start_ns"`
	End    sim.Time `json:"end_ns"`
}

// Duration returns the span's extent.
func (s *Span) Duration() sim.Duration { return s.End.Sub(s.Start) }

// Log accumulates spans. It is used from simulation context only (one
// simulated thread at a time), so it needs no locking, and its spans are in
// schedule order. A nil *Log is tracing off: it records nothing.
type Log struct {
	Spans []Span `json:"spans"`
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Enabled reports whether the log records spans, that is, whether it is not
// nil.
func (l *Log) Enabled() bool { return l != nil }

// Add appends a completed span.
func (l *Log) Add(s Span) {
	if l.Enabled() {
		l.Spans = append(l.Spans, s)
	}
}

// Len reports the number of recorded spans.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.Spans)
}

// All returns the recorded spans in schedule order; treat the slice as
// read-only.
func (l *Log) All() []Span {
	if l == nil {
		return nil
	}
	return l.Spans
}

// FuncStat is the aggregated profile of one elementary function.
type FuncStat struct {
	Name  string
	Count int
	Total sim.Duration
	Min   sim.Duration
	Max   sim.Duration
}

// Mean returns the average span duration.
func (f *FuncStat) Mean() sim.Duration {
	if f.Count == 0 {
		return 0
	}
	return f.Total / sim.Duration(f.Count)
}

// Breakdown aggregates the log per function name, sorted by total time
// descending — the paper's "time spent within each elementary function".
func (l *Log) Breakdown() []FuncStat {
	byName := make(map[string]*FuncStat)
	spans := l.All()
	for i := range spans {
		s := &spans[i]
		st := byName[s.Name]
		if st == nil {
			st = &FuncStat{Name: s.Name, Min: s.Duration()}
			byName[s.Name] = st
		}
		d := s.Duration()
		st.Count++
		st.Total += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
	}
	out := make([]FuncStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// PerNode aggregates total traced time per node.
func (l *Log) PerNode() map[int]sim.Duration {
	out := make(map[int]sim.Duration)
	for _, s := range l.All() {
		out[s.Node] += s.Duration()
	}
	return out
}

// WriteJSON exports the log.
func (l *Log) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&Log{Spans: l.All()})
}

// ReadJSON imports a log previously written with WriteJSON.
func ReadJSON(r io.Reader) (*Log, error) {
	var l Log
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, fmt.Errorf("trace: decoding log: %w", err)
	}
	return &l, nil
}

// FormatBreakdown renders the per-function profile as an aligned text table.
func FormatBreakdown(stats []FuncStat, w io.Writer) {
	fmt.Fprintf(w, "%-24s %10s %14s %12s %12s %12s\n",
		"function", "calls", "total(us)", "mean(us)", "min(us)", "max(us)")
	for _, st := range stats {
		fmt.Fprintf(w, "%-24s %10d %14.1f %12.2f %12.2f %12.2f\n",
			st.Name, st.Count, st.Total.Microseconds(), st.Mean().Microseconds(),
			st.Min.Microseconds(), st.Max.Microseconds())
	}
}

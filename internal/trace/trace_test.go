package trace

import (
	"bytes"
	"strings"
	"testing"

	"dsmpm2/internal/sim"
)

func span(name string, node int, start, end sim.Time) Span {
	return Span{Name: name, Node: node, Thread: "t", Start: start, End: end}
}

func TestLogAddAndLen(t *testing.T) {
	l := NewLog()
	l.Add(span("a", 0, 0, 10))
	l.Add(span("b", 1, 5, 25))
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
}

// TestDisabledLogDrops: tracing off is a nil log, which records nothing and
// does not panic.
func TestDisabledLogDrops(t *testing.T) {
	var nilLog *Log
	if nilLog.Enabled() {
		t.Fatal("nil log claims enabled")
	}
	nilLog.Add(span("a", 0, 0, 1)) // must not panic
	if nilLog.Len() != 0 || nilLog.All() != nil {
		t.Fatal("nil log recorded a span")
	}
}

func TestBreakdownAggregates(t *testing.T) {
	l := NewLog()
	l.Add(span("read", 0, 0, 10))
	l.Add(span("read", 0, 20, 50))
	l.Add(span("write", 1, 0, 5))
	stats := l.Breakdown()
	if len(stats) != 2 {
		t.Fatalf("breakdown entries = %d", len(stats))
	}
	// Sorted by total descending: read (40) first.
	if stats[0].Name != "read" || stats[0].Count != 2 || stats[0].Total != 40 {
		t.Fatalf("read stat = %+v", stats[0])
	}
	if stats[0].Min != 10 || stats[0].Max != 30 || stats[0].Mean() != 20 {
		t.Fatalf("read min/max/mean = %v/%v/%v", stats[0].Min, stats[0].Max, stats[0].Mean())
	}
}

func TestBreakdownTiesSortedByName(t *testing.T) {
	l := NewLog()
	l.Add(span("b", 0, 0, 10))
	l.Add(span("a", 0, 0, 10))
	stats := l.Breakdown()
	if stats[0].Name != "a" {
		t.Fatalf("tie order = %v, %v", stats[0].Name, stats[1].Name)
	}
}

func TestPerNode(t *testing.T) {
	l := NewLog()
	l.Add(span("x", 0, 0, 10))
	l.Add(span("y", 0, 0, 5))
	l.Add(span("z", 2, 0, 7))
	per := l.PerNode()
	if per[0] != 15 || per[2] != 7 {
		t.Fatalf("per node = %v", per)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := NewLog()
	l.Add(span("rpc", 3, 100, 250))
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Spans[0] != l.Spans[0] {
		t.Fatalf("round trip = %+v", got.Spans)
	}
	if !got.Enabled() {
		t.Fatal("decoded log not enabled")
	}
}

func TestReadJSONBadInput(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestFormatBreakdown(t *testing.T) {
	l := NewLog()
	l.Add(span("fault", 0, 0, 11000))
	var buf bytes.Buffer
	FormatBreakdown(l.Breakdown(), &buf)
	out := buf.String()
	if !strings.Contains(out, "fault") || !strings.Contains(out, "11.0") {
		t.Fatalf("format output:\n%s", out)
	}
}

func TestMeanOfEmptyStat(t *testing.T) {
	var f FuncStat
	if f.Mean() != 0 {
		t.Fatal("empty mean not zero")
	}
}

func TestSpanDuration(t *testing.T) {
	s := span("x", 0, 10, 35)
	if s.Duration() != 25 {
		t.Fatalf("duration = %v", s.Duration())
	}
}

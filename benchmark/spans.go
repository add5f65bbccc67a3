package main

import "time"

// A span is one interval the harness recorded around a call into the
// program: set-up, the timed run, verification, or a layer probe. Spans stay
// in memory and are written to benchmark/out/<workload>.spans.json when the
// traced run ends. Start and End are seconds since the recording process
// started; Parent is the id of the enclosing span, 0 for none.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

type spanLog struct{ spans []span }

func (l *spanLog) begin(name string, parent int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(procStart).Seconds()})
	return id
}

func (l *spanLog) end(id int) { l.spans[id-1].End = time.Since(procStart).Seconds() }

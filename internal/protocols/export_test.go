package protocols

import (
	"testing"

	"dsmpm2/internal/core"
	"dsmpm2/internal/pm2"
)

// ConformanceProgram is one of the standard conformance scenarios, for the
// tests that drive them through the facade (package protocols_test): Run
// plays it, on its batched release path, on rt and d with run driving the
// threads (a System's Run), and returns the final shared values.
type ConformanceProgram struct {
	Name string
	Run  func(t *testing.T, rt *pm2.Runtime, run func() error, d *core.DSM) []uint64
}

// ConformancePrograms returns the standard conformance scenarios.
func ConformancePrograms() []ConformanceProgram {
	var out []ConformanceProgram
	for _, sc := range conformanceScenarios() {
		out = append(out, ConformanceProgram{sc.name, func(t *testing.T, rt *pm2.Runtime, run func() error, d *core.DSM) []uint64 {
			return sc.run(t, &machine{Runtime: rt, run: run}, d, false)
		}})
	}
	return out
}

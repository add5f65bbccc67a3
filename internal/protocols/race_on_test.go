//go:build race

package protocols

// raceEnabled reports a -race build, whose instrumentation makes some of the
// pinned operations allocate (see TestMissPathAllocationPins).
const raceEnabled = true

//go:build race

package dsmpm2_test

// raceEnabled reports a -race build, whose instrumentation allocates, so the
// allocation budgets are not held there (see TestNewAllocationBudget).
const raceEnabled = true

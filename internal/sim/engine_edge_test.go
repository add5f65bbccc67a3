package sim

import (
	"strings"
	"testing"
)

// TestStopDiscardsPendingEvents: Stop from engine context mid-run ends the
// simulation after the current event; later events never fire and Run
// returns nil even though procs are still blocked.
func TestStopDiscardsPendingEvents(t *testing.T) {
	e := NewEngine(1)
	e.Go("blocked", func(p *Proc) { p.Park("waits forever") })
	fired := []int{}
	e.Schedule(10, func() { fired = append(fired, 1) })
	e.Schedule(20, func() {
		fired = append(fired, 2)
		e.Stop()
	})
	e.Schedule(30, func() { fired = append(fired, 3) })
	if err := e.Run(); err != nil {
		t.Fatalf("stopped run returned %v, want nil", err)
	}
	if len(fired) != 2 || fired[1] != 2 {
		t.Fatalf("events fired = %v, want [1 2]", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v after Stop, want 20", e.Now())
	}
}

// TestDeadlockErrorFormatting pins the report format: virtual time, count,
// and the sorted "name (reason)" list.
func TestDeadlockErrorFormatting(t *testing.T) {
	de := &DeadlockError{
		Now:     Time(42 * Microsecond),
		Blocked: []string{"alice (lock L)", "bob (page 7)"},
	}
	want := "sim: deadlock at t=42.000us: 2 proc(s) blocked: alice (lock L); bob (page 7)"
	if got := de.Error(); got != want {
		t.Fatalf("DeadlockError.Error() = %q, want %q", got, want)
	}
}

// TestDeadlockReportSortedAndDaemonFree: the generated report lists blocked
// procs sorted by name with their park reasons, and daemons never appear no
// matter how many are parked.
func TestDeadlockReportSortedAndDaemonFree(t *testing.T) {
	e := NewEngine(1)
	e.Go("zeta", func(p *Proc) { p.Park("reason z") })
	e.Go("alpha", func(p *Proc) { p.Park("reason a") })
	for i := 0; i < 3; i++ {
		d := e.Go("svc", func(p *Proc) { p.Park("service loop") })
		d.MarkDaemon()
	}
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run returned %v, want *DeadlockError", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("blocked = %v; daemons must be excluded", de.Blocked)
	}
	if de.Blocked[0] != "alpha (reason a)" || de.Blocked[1] != "zeta (reason z)" {
		t.Fatalf("blocked list not sorted with reasons: %v", de.Blocked)
	}
	if !strings.Contains(de.Error(), "2 proc(s) blocked") {
		t.Fatalf("message %q does not carry the non-daemon count", de.Error())
	}
}

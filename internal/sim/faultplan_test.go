package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenPlan is the plan pinned in testdata/faultplan.golden.json: one of
// every event kind, deliberately appended out of time order to prove the
// wire form preserves the author's order (sorting happens at injection).
func goldenPlan() *FaultPlan {
	p := &FaultPlan{Seed: 42}
	p.Crash(Time(10*Microsecond), 3).
		Restart(Time(40*Microsecond), 3).
		Partition(Time(20*Microsecond), 0, 1).
		Heal(Time(30*Microsecond), 0, 1).
		Loss(Time(5*Microsecond), 2, 4, 0.25, 0.125)
	return p
}

// TestFaultPlanValidateErrors pins the validator's rejection of schedules
// that cannot mean anything sensible, each with a descriptive error.
func TestFaultPlanValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		plan *FaultPlan
		want string // substring of the error
	}{
		{"negative time", (&FaultPlan{}).Crash(-1, 0), "negative time"},
		{"negative node", (&FaultPlan{}).Crash(5, -2), "negative node"},
		{"restart before crash", (&FaultPlan{}).Restart(5, 2), "before any crash"},
		{"restart sorted before its crash", (&FaultPlan{}).Crash(10, 2).Restart(5, 2), "before any crash"},
		{"double crash", (&FaultPlan{}).Crash(5, 2).Crash(10, 2), "already crashed"},
		{"self link", (&FaultPlan{}).Partition(5, 3, 3), "self-link"},
		{"negative endpoint", (&FaultPlan{}).Heal(5, -1, 3), "negative link endpoint"},
		{"drop rate above one", (&FaultPlan{}).Loss(5, 0, 1, 1.5, 0), "drop rate"},
		{"drop rate one", (&FaultPlan{}).Loss(5, 0, 1, 1, 0), "plan a partition instead"},
		{"negative dup rate", (&FaultPlan{}).Loss(5, 0, 1, 0, -0.5), "dup rate"},
		{"unknown kind", &FaultPlan{Events: []FaultEvent{{At: 5, Kind: FaultKind(99)}}}, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if err == nil {
				t.Fatalf("plan validated; want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := goldenPlan().Validate(); err != nil {
		t.Fatalf("well-formed plan rejected: %v", err)
	}
	// Crash/restart/crash of the same node is a legal cycle.
	if err := (&FaultPlan{}).Crash(1, 2).Restart(2, 2).Crash(3, 2).Validate(); err != nil {
		t.Fatalf("crash/restart/crash cycle rejected: %v", err)
	}
}

// TestFaultPlanSaveLoadGolden round-trips a plan through Save and
// LoadFaultPlan and pins the on-disk wire form against a checked-in golden
// file, so accidental format changes (which would orphan saved plans) fail
// loudly.
func TestFaultPlanSaveLoadGolden(t *testing.T) {
	golden := filepath.Join("testdata", "faultplan.golden.json")
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := goldenPlan().Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with FaultPlan.Save): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("wire form drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}

	loaded, err := LoadFaultPlan(golden)
	if err != nil {
		t.Fatalf("load golden: %v", err)
	}
	if !reflect.DeepEqual(loaded, goldenPlan()) {
		t.Fatalf("loaded plan differs from source:\ngot  %+v\nwant %+v", loaded, goldenPlan())
	}
}

// TestFaultPlanLoadRejectsMalformed verifies the load path reports symbolic
// and semantic problems descriptively instead of importing a broken plan.
func TestFaultPlanLoadRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"unknown kind", `{"seed":1,"events":[{"at":5,"kind":"meteor_strike","node":0}]}`, "meteor_strike"},
		{"negative time", `{"seed":1,"events":[{"at":-5,"kind":"crash","node":0}]}`, "negative time"},
		{"restart before crash", `{"seed":1,"events":[{"at":5,"kind":"restart","node":2}]}`, "before any crash"},
		{"not json", `]]]`, "invalid character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "plan.json")
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadFaultPlan(path)
			if err == nil {
				t.Fatalf("malformed plan loaded; want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFaultPlanSaveRejectsInvalid verifies a bad schedule is caught at save
// time, not on the machine that loads it.
func TestFaultPlanSaveRejectsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	err := (&FaultPlan{}).Restart(5, 2).Save(path)
	if err == nil || !strings.Contains(err.Error(), "before any crash") {
		t.Fatalf("invalid plan saved; err=%v", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("rejected save left a file behind")
	}
}

// FuzzFaultPlanJSON feeds the plan decoder arbitrary bytes: decoding and
// validating never panic, and a plan that validates survives the round trip
// through its wire form — re-decoded equal, re-encoded byte-identical.
func FuzzFaultPlanJSON(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "faultplan.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, seed := range []string{
		`{"seed":1,"events":[{"at":5,"kind":"meteor_strike","node":0}]}`,
		`{"seed":1,"events":[{"at":5,"kind":"restart","node":2}]}`,
		`{"seed":-3,"events":[{"at":7,"kind":"loss","from":1,"to":2,"drop_rate":0.5,"dup_rate":1e-9}]}`,
		`{"seed":2,"events":[{"at":7,"kind":"loss","from":1,"to":2,"drop_rate":1}]}`,
		`{"events":[]}`, `null`, `]]]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p FaultPlan
		if err := p.UnmarshalJSON(data); err != nil || p.Validate() != nil {
			return
		}
		wire, err := p.MarshalJSON()
		if err != nil {
			t.Fatalf("valid plan %+v does not encode: %v", p, err)
		}
		var back FaultPlan
		if err := back.UnmarshalJSON(wire); err != nil {
			t.Fatalf("plan's own wire form %s does not decode: %v", wire, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the plan:\nwas %+v\nnow %+v", p, back)
		}
		if again, _ := back.MarshalJSON(); string(again) != string(wire) {
			t.Fatalf("re-encoding drifted:\n%s\n%s", wire, again)
		}
	})
}

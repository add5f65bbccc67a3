package dsmpm2_test

import (
	"strings"
	"testing"

	"dsmpm2"
)

// TestTunedPriorFillsConfig: a what-if sweep's recommendation fed back via
// Config.TunedPrior must configure the platform like the winning cell —
// protocol default, adaptive placement — and install the
// page-policy prior for the adaptive protocol. Explicit fields still win.
func TestTunedPriorFillsConfig(t *testing.T) {
	prior := &dsmpm2.TunedPrior{
		Protocol: "hbrc_mw", Placement: "adaptive", Workload: "jacobi",
	}
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2, Seed: 1, TunedPrior: prior})
	d := sys.DSM()
	if want, _ := sys.Protocol("hbrc_mw"); d.DefaultProtocol() != want {
		t.Errorf("default protocol %v, want hbrc_mw (%v)", d.DefaultProtocol(), want)
	}
	if !d.ProfilerEnabled() {
		t.Error("prior's adaptive placement did not enable the profiler")
	}
	if !d.TunedPagePrior() {
		t.Error("page-policy prior not installed")
	}

	// An explicit protocol beats the prior's.
	sys = dsmpm2.MustNew(dsmpm2.Config{Nodes: 2, Seed: 1, Protocol: "erc_sw", TunedPrior: prior})
	if want, _ := sys.Protocol("erc_sw"); sys.DSM().DefaultProtocol() != want {
		t.Errorf("explicit protocol overridden by the prior")
	}

	// No prior: nothing installed.
	sys = dsmpm2.MustNew(dsmpm2.Config{Nodes: 2, Seed: 1})
	if sys.DSM().TunedPagePrior() {
		t.Error("page-policy prior installed without a TunedPrior")
	}
}

// TestTunedPriorRejectsUnknownPlacement: New accepts exactly the tuner's
// placements (or none) and refuses anything else with an error naming the
// valid set — a typo must not silently install the page-policy prior with
// the profiler off.
func TestTunedPriorRejectsUnknownPlacement(t *testing.T) {
	for _, tc := range []struct {
		placement string
		ok        bool
	}{
		{"", true},
		{"static", true},
		{"misplaced", true},
		{"adaptive", true},
		{"adaptiv", false},
		{"Adaptive", false},
		{"batched", false},
	} {
		prior := &dsmpm2.TunedPrior{Protocol: "hbrc_mw", Placement: tc.placement}
		_, err := dsmpm2.New(dsmpm2.Config{Nodes: 2, TunedPrior: prior})
		if tc.ok {
			if err != nil {
				t.Errorf("placement %q rejected: %v", tc.placement, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("placement %q accepted", tc.placement)
			continue
		}
		for _, want := range []string{tc.placement, "static", "misplaced", "adaptive", "empty"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("placement %q: error %q does not name %q", tc.placement, err, want)
			}
		}
	}
}

package madeleine

import (
	"testing"

	"dsmpm2/internal/sim"
)

// TestNICModelOffNoSerialization: the network models no per-node outbound
// port, so two transfers one node sends back to back leave together.
func TestNICModelOffNoSerialization(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 2)
	var arrivals []sim.Time
	eng.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			nw.Recv(p, 1, "ch")
			arrivals = append(arrivals, p.Now())
		}
	})
	eng.Go("send", func(p *sim.Proc) {
		nw.SendBulk(0, 1, "ch", 4096, nil)
		nw.SendBulk(0, 1, "ch", 4096, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivals[0] != arrivals[1] {
		t.Fatalf("back-to-back sends from one node queued at its interface: %v", arrivals)
	}
}

package madeleine

import (
	"math"
	"testing"
	"testing/quick"

	"dsmpm2/internal/sim"
)

// roundUS rounds a duration to whole microseconds, the paper's precision.
func roundUS(d sim.Duration) int {
	return int(math.Round(d.Microseconds()))
}

// TestCalibrationTable3 checks that the profile constants reproduce the
// paper's Table 3 rows exactly (at microsecond rounding).
func TestCalibrationTable3(t *testing.T) {
	cases := []struct {
		p                 *Profile
		request, transfer int
	}{
		{BIPMyrinet, 23, 138},
		{TCPMyrinet, 220, 343},
		{TCPFastEthernet, 220, 736},
		{SISCISCI, 38, 119},
	}
	for _, c := range cases {
		if got := roundUS(c.p.CtrlMsg); got != c.request {
			t.Errorf("%s: request cost = %dus, want %dus", c.p.Name, got, c.request)
		}
		if got := roundUS(c.p.Transfer(PageSize4K)); got != c.transfer {
			t.Errorf("%s: 4KiB transfer = %dus, want %dus", c.p.Name, got, c.transfer)
		}
	}
}

// TestCalibrationTable4 checks the thread migration row of Table 4.
func TestCalibrationTable4(t *testing.T) {
	cases := []struct {
		p   *Profile
		mig int
	}{
		{BIPMyrinet, 75},
		{TCPMyrinet, 280},
		{TCPFastEthernet, 373},
		{SISCISCI, 62},
	}
	for _, c := range cases {
		if got := roundUS(c.p.Migration(MigrationPayload)); got != c.mig {
			t.Errorf("%s: migration = %dus, want %dus", c.p.Name, got, c.mig)
		}
	}
}

// TestCalibrationRPC checks the Section 2.1 null RPC latencies.
func TestCalibrationRPC(t *testing.T) {
	if roundUS(BIPMyrinet.RPCBase) != 8 {
		t.Errorf("BIP/Myrinet null RPC = %v, want 8us", BIPMyrinet.RPCBase)
	}
	if roundUS(SISCISCI.RPCBase) != 6 {
		t.Errorf("SISCI/SCI null RPC = %v, want 6us", SISCISCI.RPCBase)
	}
}

func TestTransferMonotonic(t *testing.T) {
	for _, p := range Profiles {
		if p.Transfer(0) != p.XferBase {
			t.Errorf("%s: Transfer(0) = %v, want base %v", p.Name, p.Transfer(0), p.XferBase)
		}
		if p.Transfer(8192) <= p.Transfer(4096) {
			t.Errorf("%s: transfer cost not monotonic in size", p.Name)
		}
		if p.Transfer(-1) != p.XferBase {
			t.Errorf("%s: negative size not clamped", p.Name)
		}
		if p.Migration(-1) != p.MigBase {
			t.Errorf("%s: negative migration size not clamped", p.Name)
		}
	}
}

func TestMigrationGrowsWithStack(t *testing.T) {
	// Section 4: "this migration time is closely related to the stack size
	// of the thread".
	for _, p := range Profiles {
		small := p.Migration(MigrationPayload)
		big := p.Migration(64 * 1024)
		if big <= small {
			t.Errorf("%s: 64KiB-stack migration (%v) not slower than minimal (%v)",
				p.Name, big, small)
		}
	}
}

func TestMigBasePositive(t *testing.T) {
	for _, p := range Profiles {
		if p.MigBase <= 0 {
			t.Errorf("%s: calibration produced non-positive MigBase %v", p.Name, p.MigBase)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("BIP/Myrinet") != BIPMyrinet {
		t.Error("ByName failed to find BIP/Myrinet")
	}
	if ByName("carrier pigeon") != nil {
		t.Error("ByName invented a profile")
	}
}

func TestSendRecvLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 2)
	var arrived sim.Time
	eng.Go("recv", func(p *sim.Proc) {
		m := nw.Recv(p, 1, "test")
		arrived = p.Now()
		if m.From != 0 || m.Payload.(string) != "hello" {
			t.Errorf("bad message %+v", m)
		}
	})
	eng.Go("send", func(p *sim.Proc) {
		nw.SendCtrl(0, 1, "test", "hello")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if arrived != sim.Time(BIPMyrinet.CtrlMsg) {
		t.Fatalf("control message arrived at %v, want %v", arrived, BIPMyrinet.CtrlMsg)
	}
}

func TestBulkSlowerThanCtrl(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, SISCISCI, 2)
	var ctrlAt, bulkAt sim.Time
	eng.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			m := nw.Recv(p, 1, "ch")
			if m.Size == 64 {
				ctrlAt = p.Now()
			} else {
				bulkAt = p.Now()
			}
		}
	})
	eng.Go("send", func(p *sim.Proc) {
		nw.SendCtrl(0, 1, "ch", nil)
		nw.SendBulk(0, 1, "ch", 4096, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if bulkAt <= ctrlAt {
		t.Fatalf("4KiB bulk (%v) not slower than control (%v)", bulkAt, ctrlAt)
	}
}

func TestPerChannelQueuesIndependent(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 2)
	got := []string{}
	eng.Go("recvB", func(p *sim.Proc) {
		nw.Recv(p, 1, "b")
		got = append(got, "b")
	})
	eng.Go("send", func(p *sim.Proc) {
		nw.SendCtrl(0, 1, "a", nil) // nobody listens on "a"; must not block "b"
		nw.SendCtrl(0, 1, "b", nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("channel b receiver never ran")
	}
	if m, ok := nw.TryRecv(1, "a"); !ok || m.Chan != nw.ChannelID("a") {
		t.Fatalf("message on channel a lost")
	}
}

func TestLoopbackStillCharged(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, SISCISCI, 1)
	var at sim.Time
	eng.Go("self", func(p *sim.Proc) {
		nw.SendCtrl(0, 0, "loop", nil)
		nw.Recv(p, 0, "loop")
		at = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at == 0 {
		t.Fatal("loopback message delivered instantaneously")
	}
}

func TestStatsAccumulate(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 2)
	eng.Go("send", func(p *sim.Proc) {
		nw.SendCtrl(0, 1, "x", nil)
		nw.SendBulk(0, 1, "x", 4096, nil)
	})
	eng.Go("recv", func(p *sim.Proc) {
		nw.Recv(p, 1, "x")
		nw.Recv(p, 1, "x")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	msgs, bytes := nw.Stats()
	if msgs != 2 || bytes != 64+4096 {
		t.Fatalf("stats = %d msgs, %d bytes; want 2, 4160", msgs, bytes)
	}
}

func TestBadNodePanics(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range node did not panic")
		}
	}()
	nw.SendCtrl(0, 5, "x", nil)
}

// Property: transfer cost is affine in size, i.e. Transfer(a+b) - Transfer(a)
// depends only on b (within 1ns rounding).
func TestTransferAffineProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		for _, p := range Profiles {
			d1 := p.Transfer(int(a)+int(b)) - p.Transfer(int(a))
			d2 := p.Transfer(int(b)) - p.Transfer(0)
			diff := d1 - d2
			if diff < -1 || diff > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

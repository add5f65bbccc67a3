package dsmpm2_test

import (
	"strings"
	"testing"

	"dsmpm2"
	"dsmpm2/internal/core"
	"dsmpm2/internal/memory"
)

func TestNewDefaults(t *testing.T) {
	sys, err := dsmpm2.New(dsmpm2.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Nodes() != 2 {
		t.Fatalf("default nodes = %d, want 2", sys.Nodes())
	}
	if l := sys.Runtime().Link(0, 1); l != dsmpm2.BIPMyrinet {
		t.Fatalf("default network = %v", l.Name)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := dsmpm2.New(dsmpm2.Config{Nodes: -3}); err == nil {
		t.Fatal("negative node count accepted")
	}
	if _, err := dsmpm2.New(dsmpm2.Config{Protocol: "quantum"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	// A nil profile in the interface field is not an unset field: it would
	// fault on the first message, so New refuses it instead of defaulting.
	var none *dsmpm2.NetworkProfile
	if _, err := dsmpm2.New(dsmpm2.Config{Network: none}); err == nil || !strings.Contains(err.Error(), "nil profile") {
		t.Fatalf("nil profile accepted: %v", err)
	}
}

func TestProtocolNamesComplete(t *testing.T) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 1})
	names := strings.Join(sys.ProtocolNames(), ",")
	for _, want := range []string{"li_hudak", "migrate_thread", "erc_sw", "hbrc_mw", "java_ic", "java_pf", "hybrid", "adaptive"} {
		if !strings.Contains(names, want) {
			t.Errorf("protocol %q missing from registry (%s)", want, names)
		}
	}
}

func TestFigure2Workflow(t *testing.T) {
	// The paper's Figure 2 program: default protocol, shared int, x++.
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 4, Protocol: "li_hudak"})
	x := sys.MustMalloc(0, 8, nil)
	lock := sys.NewLock(0)
	sys.Spawn(0, "init", func(t *dsmpm2.Thread) { t.WriteUint64(x, 34) })
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		sys.Spawn(n, "w", func(th *dsmpm2.Thread) {
			th.Acquire(lock)
			th.WriteUint64(x, th.ReadUint64(x)+1)
			th.Release(lock)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var got uint64
	sys.Spawn(0, "r", func(th *dsmpm2.Thread) { got = th.ReadUint64(x) })
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 38 {
		t.Fatalf("x = %d, want 38", got)
	}
}

func TestUserDefinedProtocol(t *testing.T) {
	// dsm_create_protocol: build a protocol from hooks and use it like a
	// built-in (single-node grant-on-fault protocol).
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 1})
	d := sys.DSM()
	id := sys.CreateProtocol(&core.Hooks{
		ProtoName: "grant_all",
		OnReadFault: func(f *core.Fault) {
			f.DSM.Space(f.Node).SetAccess(f.Page, memory.ReadOnly)
		},
		OnWriteFault: func(f *core.Fault) {
			f.DSM.Space(f.Node).SetAccess(f.Page, memory.ReadWrite)
		},
	})
	base := sys.MustMalloc(0, 8, &dsmpm2.Attr{Protocol: id, Home: 0})
	pg := d.Space(0).PageOf(base)
	d.Space(0).Drop(pg)
	var got uint64
	sys.Spawn(0, "w", func(th *dsmpm2.Thread) {
		th.WriteUint64(base, 5)
		got = th.ReadUint64(base)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("user protocol round trip = %d", got)
	}
}

func TestDynamicProtocolSelection(t *testing.T) {
	// Section 2.3: select among protocols at run time, no recompilation.
	for _, name := range []string{"li_hudak", "hbrc_mw"} {
		sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2})
		if err := sys.SetDefaultProtocol(name); err != nil {
			t.Fatal(err)
		}
		x := sys.MustMalloc(0, 8, nil)
		lock := sys.NewLock(0)
		sys.Spawn(1, "w", func(th *dsmpm2.Thread) {
			th.Acquire(lock)
			th.WriteUint64(x, 7)
			th.Release(lock)
		})
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		var got uint64
		sys.Spawn(0, "r", func(th *dsmpm2.Thread) {
			th.Acquire(lock)
			got = th.ReadUint64(x)
			th.Release(lock)
		})
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 7 {
			t.Fatalf("[%s] got %d", name, got)
		}
	}
}

func TestTraceRecordsSpans(t *testing.T) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2, Trace: true})
	x := sys.MustMalloc(1, 8, nil)
	lock := sys.NewLock(0)
	sys.Spawn(0, "w", func(th *dsmpm2.Thread) {
		th.Acquire(lock)
		th.WriteUint64(x, 1)
		th.Compute(5 * dsmpm2.Microsecond)
		th.Release(lock)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	lg := sys.Trace()
	if lg == nil || lg.Len() == 0 {
		t.Fatal("no spans recorded with Trace enabled")
	}
	names := map[string]bool{}
	for _, st := range lg.Breakdown() {
		names[st.Name] = true
	}
	for _, want := range []string{"lock_acquire", "dsm_write", "compute", "lock_release"} {
		if !names[want] {
			t.Errorf("span %q missing from breakdown", want)
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 1})
	if sys.Trace() != nil {
		t.Fatal("trace log present without Config.Trace")
	}
}

func TestStackSizeAffectsFaultCost(t *testing.T) {
	// Section 4's caveat, through the public API.
	cost := func(stack int) dsmpm2.Duration {
		sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2, Protocol: "migrate_thread"})
		data := sys.MustMalloc(1, 8, nil)
		var took dsmpm2.Duration
		sys.SpawnStack(0, "w", stack, func(th *dsmpm2.Thread) {
			start := th.Now()
			th.WriteUint64(data, 1)
			took = th.Now().Sub(start)
		})
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	if cost(64<<10) <= cost(1<<10) {
		t.Fatal("64KiB-stack fault not slower than 1KiB-stack fault")
	}
}

func TestObjectAPI(t *testing.T) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2, Protocol: "java_pf"})
	pid, _ := sys.Protocol("java_pf")
	obj := sys.MustNewObject(1, 3, pid)
	mon := sys.NewLock(0)
	sys.Spawn(1, "w", func(th *dsmpm2.Thread) {
		th.Acquire(mon)
		th.PutField(obj, 2, 99)
		th.Release(mon)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var got uint64
	sys.Spawn(0, "r", func(th *dsmpm2.Thread) {
		th.Acquire(mon)
		got = th.GetField(obj, 2)
		th.Release(mon)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("object field = %d, want 99", got)
	}
}

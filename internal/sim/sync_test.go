package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestMutexExcludes(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 10; j++ {
				m.Lock(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Advance(Microsecond)
				inside--
				m.Unlock(p)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("mutex admitted %d procs at once", maxInside)
	}
}

func TestMutexFIFO(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	var order []string
	e.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Advance(100)
		m.Unlock(p)
	})
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		start := Time(10 * (i + 1))
		e.Spawn(name, start, func(p *Proc) {
			m.Lock(p)
			order = append(order, p.Name())
			m.Unlock(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w0", "w1", "w2", "w3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

func TestMutexReentrantLockPanics(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	panicked := false
	e.Go("a", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
				m.Unlock(p)
			}
		}()
		m.Lock(p)
		m.Lock(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("re-locking an owned mutex did not panic")
	}
}

func TestMutexWrongUnlockPanics(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	panicked := false
	e.Go("a", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		m.Unlock(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("unlocking an unowned mutex did not panic")
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	c := &Cond{L: &m}
	ready := 0
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			m.Lock(p)
			ready++
			c.Wait(p)
			woken++
			m.Unlock(p)
		})
	}
	e.Go("signaler", func(p *Proc) {
		for ready < 3 {
			p.Advance(Microsecond)
		}
		m.Lock(p)
		c.Signal()
		m.Unlock(p)
		p.Advance(Microsecond)
		if woken != 1 {
			t.Errorf("after one Signal, %d woken, want 1", woken)
		}
		m.Lock(p)
		c.Broadcast()
		m.Unlock(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Fatalf("after Broadcast, %d woken, want 3", woken)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine(1)
	r := new(Resource)
	var done []Time
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Use(p, 10*Microsecond)
			done = append(done, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * Microsecond), Time(20 * Microsecond), Time(30 * Microsecond)}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("single-CPU completion times %v, want %v", done, want)
		}
	}
	if r.Busy() != 30*Microsecond {
		t.Fatalf("busy = %v, want 30us", r.Busy())
	}
}

func TestChanFIFO(t *testing.T) {
	e := NewEngine(1)
	var c Chan
	var got []interface{}
	e.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, c.Recv(p))
		}
	})
	e.Schedule(10, func() { c.Push(1) })
	e.Schedule(20, func() { c.Push(2) })
	e.Schedule(30, func() { c.Push(3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v.(int) != i+1 {
			t.Fatalf("received %v, want [1 2 3]", got)
		}
	}
}

func TestChanTryRecv(t *testing.T) {
	var c Chan
	if _, ok := c.TryRecv(); ok {
		t.Fatal("TryRecv on empty chan reported a message")
	}
	c.Push("x")
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	v, ok := c.TryRecv()
	if !ok || v.(string) != "x" {
		t.Fatalf("TryRecv = %v, %v", v, ok)
	}
}

func TestChanRecvBeforePush(t *testing.T) {
	e := NewEngine(1)
	var c Chan
	var at Time
	e.Go("recv", func(p *Proc) {
		c.Recv(p)
		at = p.Now()
	})
	e.Schedule(50, func() { c.Push(struct{}{}) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 50 {
		t.Fatalf("blocked receiver resumed at %v, want 50", at)
	}
}

// Property: for any set of jobs on a single-server resource, the total
// completion time equals the sum of the service demands (work conservation).
func TestResourceWorkConservationProperty(t *testing.T) {
	f := func(demands []uint8) bool {
		if len(demands) == 0 || len(demands) > 20 {
			return true
		}
		e := NewEngine(1)
		r := new(Resource)
		var total Duration
		var last Time
		for i, d := range demands {
			d := Duration(d) * Microsecond
			total += d
			e.Go(fmt.Sprintf("j%d", i), func(p *Proc) {
				r.Use(p, d)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return last == Time(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a mutex-protected counter incremented by arbitrary procs ends at
// exactly the total number of increments.
func TestMutexCounterProperty(t *testing.T) {
	f := func(nProcs, nIncr uint8) bool {
		np := int(nProcs%8) + 1
		ni := int(nIncr%32) + 1
		e := NewEngine(int64(nProcs) + int64(nIncr)<<8)
		var m Mutex
		counter := 0
		for i := 0; i < np; i++ {
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < ni; j++ {
					m.Lock(p)
					v := counter
					p.Advance(Duration(e.Rand().Intn(5)) * Microsecond)
					counter = v + 1
					m.Unlock(p)
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return counter == np*ni
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

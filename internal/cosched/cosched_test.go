package cosched

import (
	"testing"
	"time"
)

func TestStrategyString(t *testing.T) {
	if None.String() != "none" || AfterSend.String() != "cosched-1" || AfterUnblock.String() != "cosched-2" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(9).String() != "strategy(?)" {
		t.Fatal("unknown strategy name wrong")
	}
}

func TestNoneAdmitsImmediately(t *testing.T) {
	c := NewController(None)
	w := c.NewWaiter()
	done := make(chan bool, 1)
	go func() { done <- w.Await() }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Await returned false")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Strategy None blocked")
	}
}

func TestAfterSendGatesOnAllSent(t *testing.T) {
	c := NewController(AfterSend)
	w := c.NewWaiter()
	done := make(chan bool, 1)
	go func() { done <- w.Await() }()
	select {
	case <-done:
		t.Fatal("Await returned before AllSent")
	case <-time.After(20 * time.Millisecond):
	}
	c.AllReleased(nil) // wrong event for this strategy: still blocked
	select {
	case <-done:
		t.Fatal("Await admitted by AllReleased under AfterSend")
	case <-time.After(20 * time.Millisecond):
	}
	c.AllSent(nil)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Await returned false")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Await not admitted by AllSent")
	}
	if c.Windows() != 1 {
		t.Fatalf("Windows = %d", c.Windows())
	}
}

func TestAfterUnblockGatesOnAllReleased(t *testing.T) {
	c := NewController(AfterUnblock)
	w := c.NewWaiter()
	done := make(chan bool, 1)
	go func() { done <- w.Await() }()
	c.AllSent(nil) // ignored under strategy 2
	select {
	case <-done:
		t.Fatal("Await admitted by AllSent under AfterUnblock")
	case <-time.After(20 * time.Millisecond):
	}
	c.AllReleased(nil)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Await returned false")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Await not admitted by AllReleased")
	}
}

func TestAwaitConsumesOneWindowPerCall(t *testing.T) {
	c := NewController(AfterUnblock)
	w := c.NewWaiter()
	c.AllReleased(nil)
	c.AllReleased(nil)
	if !w.Await() {
		t.Fatal("first Await failed")
	}
	// Both windows were consumed by the seen-watermark: a second Await
	// must block until a new window opens.
	done := make(chan bool, 1)
	go func() { done <- w.Await() }()
	select {
	case <-done:
		t.Fatal("second Await returned with no new window")
	case <-time.After(20 * time.Millisecond):
	}
	c.AllReleased(nil)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second Await not admitted")
	}
}

func TestWaiterStartsAtCurrentWindow(t *testing.T) {
	c := NewController(AfterUnblock)
	c.AllReleased(nil)
	c.AllReleased(nil)
	w := c.NewWaiter() // windows before creation don't count
	done := make(chan bool, 1)
	go func() { done <- w.Await() }()
	select {
	case <-done:
		t.Fatal("Await admitted by stale windows")
	case <-time.After(20 * time.Millisecond):
	}
	c.AllReleased(nil)
	<-done
}

func TestCloseUnblocksAndStays(t *testing.T) {
	for _, s := range []Strategy{None, AfterSend, AfterUnblock} {
		c := NewController(s)
		w := c.NewWaiter()
		done := make(chan bool, 1)
		go func() { done <- w.Await() }()
		if s == None {
			if ok := <-done; !ok {
				t.Fatal("None Await false before close")
			}
			go func() { done <- w.Await() }()
		}
		time.Sleep(5 * time.Millisecond)
		c.Close()
		select {
		case ok := <-done:
			if ok && s != None {
				t.Fatalf("%v: Await true after close", s)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%v: Close did not unblock waiter", s)
		}
		if w.Await() {
			t.Fatalf("%v: Await true on closed controller", s)
		}
	}
}

func TestMultipleWaitersAllAdmitted(t *testing.T) {
	c := NewController(AfterUnblock)
	const n = 5
	done := make(chan bool, n)
	for i := 0; i < n; i++ {
		w := c.NewWaiter()
		go func() { done <- w.Await() }()
	}
	time.Sleep(10 * time.Millisecond)
	c.AllReleased(nil)
	for i := 0; i < n; i++ {
		select {
		case ok := <-done:
			if !ok {
				t.Fatal("waiter got false")
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("waiter %d not admitted", i)
		}
	}
}

// TestWaiterCloseReleasesOnlyItself: closing one waiter unblocks it for
// good, twice over without harm, and leaves its controller's other
// waiters gated on the next window.
func TestWaiterCloseReleasesOnlyItself(t *testing.T) {
	for _, s := range []Strategy{None, AfterSend, AfterUnblock} {
		c := NewController(s)
		closing, other := c.NewWaiter(), c.NewWaiter()
		done := make(chan bool, 1)
		go func() { done <- closing.Await() }()
		if s == None {
			<-done
			go func() { done <- closing.Await() }()
		}
		time.Sleep(5 * time.Millisecond)
		closing.Close()
		closing.Close()
		select {
		case ok := <-done:
			if ok && s != None {
				t.Fatalf("%v: Await true after its waiter closed", s)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%v: Close did not unblock its waiter", s)
		}
		if closing.Await() {
			t.Fatalf("%v: Await true on a closed waiter", s)
		}
		c.AllSent(nil)
		c.AllReleased(nil)
		if !other.Await() {
			t.Fatalf("%v: closing one waiter closed another", s)
		}
	}
}

package vclock

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// withClock runs fn under an enabled clock and tears down cleanly.
func withClock(t *testing.T, fn func()) {
	t.Helper()
	Enable(0)
	defer func() {
		if !Quiesce(5 * time.Second) {
			t.Error("model did not quiesce")
		}
		Disable()
	}()
	fn()
}

func TestEnableDisable(t *testing.T) {
	if Active() {
		t.Fatal("clock active before Enable")
	}
	Enable(42)
	if !Active() || Now() != 42 {
		t.Fatalf("after Enable: active=%v now=%d", Active(), Now())
	}
	Disable()
	if Active() {
		t.Fatal("clock active after Disable")
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	withClock(t, func() {
		done := make(chan int64, 1)
		Go(func() {
			Sleep(5 * time.Millisecond)
			done <- Now()
		})
		if got := <-done; got != int64(5*time.Millisecond) {
			t.Errorf("Now after 5ms sleep = %d", got)
		}
	})
}

func TestSleepZeroOrNegative(t *testing.T) {
	withClock(t, func() {
		done := make(chan struct{})
		Go(func() {
			Sleep(0)
			Sleep(-time.Second)
			close(done)
		})
		<-done
		if Now() != 0 {
			t.Errorf("Now = %d after zero sleeps", Now())
		}
	})
}

func TestSleepersWakeInDeadlineOrder(t *testing.T) {
	withClock(t, func() {
		var mu sync.Mutex
		var order []int
		wg := NewWaitGroup()
		delays := []time.Duration{30, 10, 20, 50, 40}
		for i, d := range delays {
			i, d := i, d
			wg.Add(1)
			Go(func() {
				defer wg.Done()
				Sleep(d * time.Millisecond)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		done := make(chan struct{})
		Go(func() {
			wg.Wait()
			close(done)
		})
		<-done
		want := []int{1, 2, 0, 4, 3} // sorted by delay
		for i := range want {
			if order[i] != want[i] {
				t.Errorf("wake order = %v, want %v", order, want)
				return
			}
		}
		if Now() != int64(50*time.Millisecond) {
			t.Errorf("Now = %d", Now())
		}
	})
}

func TestVirtualRunsFasterThanRealTime(t *testing.T) {
	start := time.Now()
	withClock(t, func() {
		done := make(chan struct{})
		Go(func() {
			for i := 0; i < 1000; i++ {
				Sleep(time.Millisecond)
			}
			close(done)
		})
		<-done
	})
	// One virtual second must complete in far less than real time.
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("1s of virtual time took %v of real time", el)
	}
}

func TestCondTransfersRunnability(t *testing.T) {
	withClock(t, func() {
		var mu sync.Mutex
		cond := NewCond(&mu)
		ready := false
		got := make(chan int64, 1)
		Go(func() {
			mu.Lock()
			for !ready {
				cond.Wait()
			}
			mu.Unlock()
			got <- Now()
		})
		Go(func() {
			Sleep(3 * time.Millisecond)
			mu.Lock()
			ready = true
			cond.Broadcast()
			mu.Unlock()
		})
		if ts := <-got; ts != int64(3*time.Millisecond) {
			t.Errorf("waiter woke at %d", ts)
		}
	})
}

func TestCondSignalWakesOne(t *testing.T) {
	withClock(t, func() {
		var mu sync.Mutex
		cond := NewCond(&mu)
		tokens := 0
		var woken atomic.Int32
		wg := NewWaitGroup()
		for i := 0; i < 3; i++ {
			wg.Add(1)
			Go(func() {
				defer wg.Done()
				mu.Lock()
				for tokens == 0 {
					cond.Wait()
				}
				tokens--
				mu.Unlock()
				woken.Add(1)
			})
		}
		Go(func() {
			Sleep(time.Millisecond)
			for i := 0; i < 3; i++ {
				mu.Lock()
				tokens++
				cond.Signal()
				mu.Unlock()
				Sleep(time.Millisecond)
			}
		})
		done := make(chan struct{})
		Go(func() { wg.Wait(); close(done) })
		<-done
		if woken.Load() != 3 {
			t.Errorf("woken = %d", woken.Load())
		}
	})
}

func TestSemSerializesContention(t *testing.T) {
	withClock(t, func() {
		sem := NewSem(1)
		end := make(chan int64, 1)
		wg := NewWaitGroup()
		for i := 0; i < 4; i++ {
			wg.Add(1)
			Go(func() {
				defer wg.Done()
				sem.Acquire()
				Sleep(10 * time.Millisecond)
				sem.Release()
			})
		}
		Go(func() {
			wg.Wait()
			end <- Now()
		})
		// 4 occupations of 10ms on one slot take exactly 40ms.
		if ts := <-end; ts != int64(40*time.Millisecond) {
			t.Errorf("end = %v", time.Duration(ts))
		}
	})
}

func TestSemParallelSlots(t *testing.T) {
	withClock(t, func() {
		sem := NewSem(2)
		end := make(chan int64, 1)
		wg := NewWaitGroup()
		for i := 0; i < 4; i++ {
			wg.Add(1)
			Go(func() {
				defer wg.Done()
				sem.Acquire()
				Sleep(10 * time.Millisecond)
				sem.Release()
			})
		}
		Go(func() {
			wg.Wait()
			end <- Now()
		})
		if ts := <-end; ts != int64(20*time.Millisecond) {
			t.Errorf("end = %v", time.Duration(ts))
		}
	})
}

func TestEventDelivery(t *testing.T) {
	withClock(t, func() {
		ev := NewEvent()
		got := make(chan string, 1)
		Go(func() {
			val, err := ev.Wait()
			if err != nil {
				got <- "err"
				return
			}
			got <- string(val)
		})
		Go(func() {
			Sleep(time.Millisecond)
			ev.Fire([]byte("hi"), nil)
			ev.Fire([]byte("ignored"), nil) // second fire loses
		})
		if v := <-got; v != "hi" {
			t.Errorf("event value = %q", v)
		}
	})
}

func TestEventFireBeforeWait(t *testing.T) {
	ev := NewEvent()
	ev.Fire([]byte("early"), nil)
	v, err := ev.Wait()
	if err != nil || string(v) != "early" {
		t.Fatalf("Wait = %q, %v", v, err)
	}
}

func TestQueueFIFOAndClose(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 3; i++ {
		if err := q.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d, %v", v, ok)
		}
	}
	q.Push(9)
	rest := q.Close()
	if len(rest) != 1 || rest[0] != 9 {
		t.Fatalf("Close drained %v", rest)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop succeeded after close")
	}
	if err := q.Push(1); err != ErrClosed {
		t.Fatalf("Push after close: %v", err)
	}
	if !q.Closed() {
		t.Fatal("Closed() = false")
	}
	if q.Close() != nil {
		t.Fatal("second Close returned items")
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	withClock(t, func() {
		q := NewQueue[int]()
		got := make(chan int64, 1)
		Go(func() {
			v, ok := q.Pop()
			if !ok || v != 7 {
				got <- -1
				return
			}
			got <- Now()
		})
		Go(func() {
			Sleep(2 * time.Millisecond)
			q.Push(7)
		})
		if ts := <-got; ts != int64(2*time.Millisecond) {
			t.Errorf("pop completed at %v", time.Duration(ts))
		}
	})
}

// TestRegisterUnregister: Go has registered fn by the time it returns,
// and fn leaves the model when it returns.
func TestRegisterUnregister(t *testing.T) {
	withClock(t, func() {
		done := make(chan struct{})
		Go(func() {
			Sleep(time.Millisecond)
			close(done)
		})
		if _, _, live, _ := Stats(); live != 1 {
			t.Errorf("live = %d right after Go, want 1", live)
		}
		<-done
		if Now() != int64(time.Millisecond) {
			t.Errorf("Now = %d", Now())
		}
		if !Quiesce(5 * time.Second) {
			t.Error("fn returned and is still registered")
		}
	})
}

func TestIdleModelFreezesTime(t *testing.T) {
	withClock(t, func() {
		var mu sync.Mutex
		cond := NewCond(&mu)
		release := false
		done := make(chan struct{})
		Go(func() {
			mu.Lock()
			for !release {
				cond.Wait()
			}
			mu.Unlock()
			close(done)
		})
		time.Sleep(10 * time.Millisecond) // real time passes; model is idle
		if Now() != 0 {
			t.Errorf("virtual time advanced to %d while idle", Now())
		}
		mu.Lock()
		release = true
		cond.Broadcast()
		mu.Unlock()
		<-done
	})
}

func TestDisabledPrimitivesBehavePlain(t *testing.T) {
	// All primitives must work as ordinary sync types without the clock.
	sem := NewSem(1)
	sem.Acquire()
	released := make(chan struct{})
	go func() {
		sem.Acquire()
		close(released)
	}()
	time.Sleep(time.Millisecond)
	sem.Release()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("Sem broken without clock")
	}
	sem.Release()

	wg := NewWaitGroup()
	wg.Add(2)
	go wg.Done()
	go wg.Done()
	wg.Wait()
}

func TestQuickHeapOrdering(t *testing.T) {
	f := func(raw []int16) bool {
		var h timerHeap
		for _, v := range raw {
			h.push(timer{when: int64(v)})
		}
		last := int64(-1 << 62)
		for len(h) > 0 {
			tm := h.pop()
			if tm.when < last {
				return false
			}
			last = tm.when
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicTiming runs the same random sleep schedule twice and
// requires identical completion times. Virtual timing depends only on the
// model: without contention ties (several goroutines racing for a
// resource at the same virtual instant) a schedule is fully
// deterministic. The contended case is exercised separately in
// TestSemSerializesContention, whose total is exact regardless of
// acquisition order.
func TestDeterministicTiming(t *testing.T) {
	run := func() int64 {
		Enable(0)
		defer Disable()
		rng := rand.New(rand.NewSource(99))
		wg := NewWaitGroup()
		end := make(chan int64, 1)
		// The spawner is a model goroutine, runnable until every sleeper
		// exists: otherwise an early sleeper can find itself the only
		// registered goroutine and take the clock forward before the
		// rest start.
		Go(func() {
			for i := 0; i < 20; i++ {
				d := time.Duration(rng.Intn(1000)+1) * time.Microsecond
				wg.Add(1)
				Go(func() {
					defer wg.Done()
					Sleep(d)
					Sleep(d)
					Sleep(d / 2)
				})
			}
			wg.Wait()
			end <- Now()
		})
		v := <-end
		Quiesce(5 * time.Second)
		return v
	}
	a := run()
	b := run()
	if a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestStatsAndQuiesce(t *testing.T) {
	Enable(0)
	block := make(chan struct{})
	Go(func() { <-block }) // deliberately invisible blocking
	if _, _, live, _ := Stats(); live != 1 {
		t.Fatalf("live = %d", live)
	}
	if Quiesce(50 * time.Millisecond) {
		t.Fatal("Quiesce succeeded with a live goroutine")
	}
	close(block)
	if !Quiesce(5 * time.Second) {
		t.Fatal("Quiesce failed after release")
	}
	Disable()
}

func TestSleepOutsideWaitsForRunnableModelGoroutines(t *testing.T) {
	withClock(t, func() {
		// The driver (this goroutine, unregistered) parks on an outside
		// timer while a model goroutine still has virtual work pending.
		// The clock must not advance past the worker: by the time the
		// outside sleep returns, the worker's shorter deadline has fired.
		var workerWoke atomic.Bool
		Go(func() {
			Sleep(5 * time.Millisecond)
			workerWoke.Store(true)
		})
		SleepOutside(10 * time.Millisecond)
		if !workerWoke.Load() {
			t.Error("outside sleeper returned before the model goroutine ran")
		}
		if now := Now(); now != int64(10*time.Millisecond) {
			t.Errorf("virtual now = %d, want 10ms", now)
		}
		if _, running, _, _ := Stats(); running != 0 {
			t.Errorf("running = %d after outside sleep, want 0", running)
		}
	})
}

func TestSleepOutsideIdleModelJumps(t *testing.T) {
	withClock(t, func() {
		// With no registered goroutines at all, the outside timer is the
		// only event: the clock jumps straight to the deadline.
		start := time.Now()
		SleepOutside(time.Second)
		if real := time.Since(start); real > 100*time.Millisecond {
			t.Errorf("outside sleep of idle model took %v real time", real)
		}
		if now := Now(); now != int64(time.Second) {
			t.Errorf("virtual now = %d, want 1s", now)
		}
	})
}

func TestSleepOutsideDisabledReturns(t *testing.T) {
	SleepOutside(time.Hour) // clock inactive: must not block
}

// TestNowActiveLockFree hammers the lock-free Now and Active from
// unregistered goroutines while the clock is enabled, slept through and
// disabled, cycle after cycle (the race detector checks the mirrors
// against the locked fields' writers), and holds the ordering a stamp
// relies on: a registered goroutine woken from a sleep never reads a time
// older than the deadline it slept to, and an outside reader never sees
// time run backwards within one enabled phase.
func TestNowActiveLockFree(t *testing.T) {
	var phase atomic.Int64 // odd while a cycle's clock is enabled
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := phase.Load()
				a, b := Now(), Now()
				if before%2 == 1 && phase.Load() == before {
					if !Active() && phase.Load() == before {
						t.Error("Active() false inside an enabled phase")
					}
					if b < a {
						t.Errorf("Now ran backwards inside one phase: %d then %d", a, b)
					}
				}
			}
		}()
	}
	for cycle := 0; cycle < 50; cycle++ {
		start := int64(cycle) * 1000
		Enable(start)
		phase.Add(1)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			g := g
			wg.Add(1)
			Go(func() {
				defer wg.Done()
				for i := 1; i <= 25; i++ {
					d := time.Duration(g+i) * time.Microsecond
					deadline := Now() + int64(d)
					Sleep(d)
					if now := Now(); now < deadline {
						t.Errorf("woke at %d, before the deadline %d slept to", now, deadline)
					}
				}
			})
		}
		wg.Wait()
		if !Quiesce(5 * time.Second) {
			t.Fatal("model did not quiesce")
		}
		phase.Add(1)
		Disable()
		if Active() {
			t.Fatal("Active() true after Disable")
		}
	}
	close(stop)
	readers.Wait()
}

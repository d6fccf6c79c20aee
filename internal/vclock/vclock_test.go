package vclock

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// withClock runs fn under an enabled clock and tears down cleanly.
func withClock(t *testing.T, fn func()) {
	t.Helper()
	Enable(0, DefaultSeed)
	defer func() {
		if err := Quiesce(5 * time.Second); err != nil {
			t.Error(err)
		}
		Disable()
	}()
	fn()
}

func TestEnableDisable(t *testing.T) {
	if Active() {
		t.Fatal("clock active before Enable")
	}
	Enable(42, DefaultSeed)
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
			t.Errorf("waiter resumed at %d", ts)
		}
	})
}

func TestCondSignalWakesOne(t *testing.T) {
	withClock(t, func() {
		var mu sync.Mutex
		cond := NewCond(&mu)
		tokens := 0
		var wakes atomic.Int32
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
				wakes.Add(1)
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
		if wakes.Load() != 3 {
			t.Errorf("wakes = %d", wakes.Load())
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

// TestQueueWarmCycleZeroAlloc: a queue that holds one item at a time,
// as a connection's request queue does, keeps its storage across pops,
// so a warm cycle of a connection's hand-offs — a push step, then a pop
// step into a kept destination — allocates nothing, off the clock and
// on it. A queue that never empties slides its items down to make room
// rather than grow, and Close returns the items not yet popped.
func TestQueueWarmCycleZeroAlloc(t *testing.T) {
	item, dst := new(int), new(*int)
	cycle := func(q *Queue[*int]) float64 {
		var p Path
		return testing.AllocsPerRun(100, func() {
			q.PushStep(&p, item)
			q.PopStep(&p, dst)
			if err := p.Run(); err != nil || *dst != item {
				t.Errorf("push and pop: %v", err)
			}
		})
	}
	if n := cycle(NewQueue[*int]()); n != 0 {
		t.Errorf("off the clock: %v allocations per push and pop", n)
	}
	withClock(t, func() {
		got := make(chan float64, 1)
		Go(func() { got <- cycle(NewQueue[*int]()) })
		if n := <-got; n != 0 {
			t.Errorf("on the clock: %v allocations per push and pop", n)
		}
	})

	q := NewQueue[int]()
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	for i := 4; i < 1000; i++ {
		q.Push(i)
		if v, _ := q.Pop(); v != i-4 {
			t.Fatalf("Pop = %d, want %d", v, i-4)
		}
	}
	if c := cap(q.items); c > 8 {
		t.Fatalf("a queue of four items grew to %d", c)
	}
	if rest := q.Close(); len(rest) != 4 || rest[0] != 996 || rest[3] != 999 {
		t.Fatalf("Close returned %v, want 996..999", rest)
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
		if err := Quiesce(5 * time.Second); err != nil {
			t.Errorf("fn returned and is still registered: %v", err)
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
	f := func(raw []int16, ties []uint8) bool {
		var h readyHeap
		for i, v := range raw {
			e := entry{when: int64(v), seq: uint64(i)}
			if i < len(ties) {
				e.tie = uint64(ties[i] % 4)
			}
			h.push(e)
		}
		var last *entry
		for len(h) > 0 {
			e := h.pop()
			if last != nil && e.before(last) {
				return false
			}
			last = &e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicTiming runs the same random sleep schedule twice and
// requires identical completion times: virtual timing depends only on the
// model. Ties at one instant are TestSameSeedSameOrder's subject.
func TestDeterministicTiming(t *testing.T) {
	run := func() int64 {
		Enable(0, DefaultSeed)
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
	Enable(0, DefaultSeed)
	block := make(chan struct{})
	Go(func() { <-block }) // deliberately invisible blocking
	if _, _, live, _ := Stats(); live != 1 {
		t.Fatalf("live = %d", live)
	}
	if Quiesce(50*time.Millisecond) == nil {
		t.Fatal("Quiesce succeeded with a live goroutine")
	}
	close(block)
	if err := Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce failed after release: %v", err)
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
		// The only goroutine left is the timer that released the driver: it
		// holds the clock until the driver blocks again.
		if _, running, live, _ := Stats(); running != 1 || live != 1 {
			t.Errorf("running = %d, live = %d after outside sleep, want 1 and 1 (the timer)", running, live)
		}
	})
}

func TestSleepOutsideIdleModelJumps(t *testing.T) {
	withClock(t, func() {
		// With no other goroutine in the model, the driver's timer is the
		// only entry: the clock jumps straight to the deadline.
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
// relies on: a registered goroutine back from a sleep never reads a time
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
		Enable(start, DefaultSeed)
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
						t.Errorf("resumed at %d, before the deadline %d slept to", now, deadline)
					}
				}
			})
		}
		wg.Wait()
		if err := Quiesce(5 * time.Second); err != nil {
			t.Fatal(err)
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

// stormEntry is one step of a storm: which goroutine did what, at what
// virtual time.
type stormEntry struct {
	g    int
	what string
	at   int64
}

// storm runs Sem, Cond, Queue and Event traffic with many ties under
// seed and returns the order the steps ran in. It also checks the
// legality of that order: every sleep wakes exactly at its deadline,
// the queue hands items out first in first out, and the semaphore never
// has more holders than slots.
func storm(t *testing.T, seed uint64) []stormEntry {
	t.Helper()
	Enable(0, seed)
	defer Disable()
	var mu sync.Mutex
	var log []stormEntry
	rec := func(g int, what string) {
		mu.Lock()
		log = append(log, stormEntry{g, what, Now()})
		mu.Unlock()
	}
	sleep := func(g int, d time.Duration) {
		deadline := Now() + int64(d)
		Sleep(d)
		if Now() != deadline {
			t.Errorf("seed %d: goroutine %d resumed at %d, slept to %d", seed, g, Now(), deadline)
		}
	}
	const workers, rounds = 6, 20
	sem := NewSem(2)
	holders := 0
	var cmu sync.Mutex
	cond := NewCond(&cmu)
	tokens := 0
	q := NewQueue[int]()
	var pushed, popped []int
	evs := make([]*Event, rounds)
	for i := range evs {
		evs[i] = NewEvent()
	}
	wg := NewWaitGroup()
	done := make(chan struct{})
	Go(func() {
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			Go(func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					sem.Acquire()
					holders++
					if holders > 2 {
						t.Errorf("seed %d: %d holders of a 2-slot semaphore", seed, holders)
					}
					rec(w, "sem")
					sleep(w, time.Duration(1+r%3)*time.Microsecond)
					holders--
					sem.Release()
					if w%2 == 0 {
						if err := q.Push(w*rounds + r); err != nil {
							t.Error(err)
						}
						mu.Lock()
						pushed = append(pushed, w*rounds+r)
						mu.Unlock()
						rec(w, "push")
					} else {
						v, ok := q.Pop()
						if !ok {
							t.Errorf("seed %d: queue closed early", seed)
							return
						}
						mu.Lock()
						popped = append(popped, v)
						mu.Unlock()
						rec(w, "pop")
					}
					cmu.Lock()
					if w == 0 {
						tokens += workers - 1
						cond.Broadcast()
						evs[r].Fire(nil, nil)
						rec(w, "fire")
					} else {
						for tokens == 0 {
							cond.Wait()
						}
						tokens--
						rec(w, "cond")
					}
					cmu.Unlock()
					if w != 0 {
						evs[r].Wait()
						rec(w, "event")
					}
					sleep(w, time.Microsecond)
				}
			})
		}
		wg.Wait()
		close(done)
	})
	<-done
	if err := Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(popped) != len(pushed) || !reflect.DeepEqual(popped, pushed) {
		t.Errorf("seed %d: queue handed out %v, pushed %v", seed, popped, pushed)
	}
	return log
}

// TestSameSeedSameOrder: a storm of primitive traffic full of ties runs
// in the same order, step for step, on two runs of one seed.
func TestSameSeedSameOrder(t *testing.T) {
	a, b := storm(t, 7), storm(t, 7)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 ran two orders (%d and %d steps)", len(a), len(b))
	}
}

// TestSeedsPickLegalInterleavings: two seeds break the storm's ties two
// ways, and storm holds each order to the primitives' rules.
func TestSeedsPickLegalInterleavings(t *testing.T) {
	a, b := storm(t, 7), storm(t, 8)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 7 and 8 ran the same order")
	}
	if a[len(a)-1].at != b[len(b)-1].at {
		t.Logf("end times differ with the seed: %d and %d", a[len(a)-1].at, b[len(b)-1].at)
	}
}

// TestUnregisteredModelWaitPanics: a model-only wait from a goroutine
// Go did not start panics with ErrUnregistered instead of corrupting the
// run queue, while SleepOutside from a model goroutine is a sleep that
// returns at now+d.
func TestUnregisteredModelWaitPanics(t *testing.T) {
	withClock(t, func() {
		waits := map[string]func(){
			"Sleep": func() { Sleep(time.Millisecond) },
			"Cond.Wait": func() {
				var mu sync.Mutex
				mu.Lock()
				NewCond(&mu).Wait()
			},
			"Sem.Acquire": func() { NewSem(0).Acquire() },
			"Queue.Pop":   func() { NewQueue[int]().Pop() },
		}
		for name, wait := range waits {
			got := make(chan any, 1)
			go func() {
				defer func() { got <- recover() }()
				wait()
			}()
			if r := <-got; r != ErrUnregistered {
				t.Errorf("%s outside the model: recovered %v, want ErrUnregistered", name, r)
			}
		}
		slept := make(chan int64, 1)
		Go(func() {
			start := Now()
			SleepOutside(time.Millisecond)
			slept <- Now() - start
		})
		if d := <-slept; d != int64(time.Millisecond) {
			t.Errorf("SleepOutside(1ms) in the model returned after %v", time.Duration(d))
		}
	})
}

// TestGoroutineIdentity: getg, which tells the goroutine holding the
// clock from every other, is stable within a goroutine and differs
// between goroutines alive at once.
func TestGoroutineIdentity(t *testing.T) {
	const n = 8
	self := getg()
	if self == 0 || getg() != self {
		t.Fatalf("getg: %#x then %#x", self, getg())
	}
	ids := make(chan uintptr, n)
	var wg, alive sync.WaitGroup
	wg.Add(n)
	alive.Add(n)
	for range n {
		go func() {
			defer wg.Done()
			id := getg()
			if getg() != id {
				t.Error("getg changed within a goroutine")
			}
			ids <- id
			alive.Done()
			alive.Wait() // every goroutine stays alive until all have read theirs
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[uintptr]bool{self: true}
	for id := range ids {
		if seen[id] {
			t.Fatalf("getg %#x shared by two live goroutines", id)
		}
		seen[id] = true
	}
}

// TestStallReportNamesParkedGoroutines: two model goroutines each wait
// for the other's event. The model goes idle with both parked and
// nothing left to wake them, and Quiesce says so at once, naming each
// one's primitive and spawn site. Before that, while a third goroutine
// holds the clock, a driver's pending SleepOutside shows as its timer.
func TestStallReportNamesParkedGoroutines(t *testing.T) {
	Enable(0, DefaultSeed)
	a, b := NewEvent(), NewEvent()
	Go(func() {
		a.Wait()
		b.Fire(nil, nil)
	})
	Go(func() {
		b.Wait()
		a.Fire(nil, nil)
	})
	block := make(chan struct{})
	Go(func() { <-block }) // holds the clock, blocked outside it
	slept := make(chan struct{})
	go func() {
		SleepOutside(3 * time.Millisecond)
		close(slept)
	}()
	for {
		if _, _, _, timers := Stats(); timers == 1 {
			break
		}
		runtime.Gosched()
	}
	var s *Stall
	if err := Quiesce(20 * time.Millisecond); !errors.As(err, &s) {
		t.Fatalf("Quiesce with the clock held = %v, want a *Stall", err)
	}
	if len(s.Goroutines) != 4 || s.Goroutines[0].Seq != 0 || s.Goroutines[0].State != "SleepOutside, due at 3ms" {
		t.Errorf("the driver's pending wait is not reported as its timer, #0:\n%v", s)
	}
	close(block)
	<-slept

	start := time.Now()
	err := Quiesce(5 * time.Second)
	Disable()
	a.Fire(nil, nil) // release both, now as plain goroutines
	if !errors.As(err, &s) {
		t.Fatalf("Quiesce = %v, want a *Stall", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("a deadlock took %v to report", waited)
	}
	if len(s.Goroutines) != 2 {
		t.Fatalf("report names %d goroutines, want 2:\n%v", len(s.Goroutines), err)
	}
	for i, g := range s.Goroutines {
		if g.State != "parked in Event.Wait" || !strings.Contains(g.Site, "TestStallReportNamesParkedGoroutines.func") {
			t.Errorf("goroutine %d reported as %q spawned at %q", i, g.State, g.Site)
		}
	}
	if !strings.Contains(err.Error(), "nothing left to wake them") {
		t.Errorf("report: %v", err)
	}
}

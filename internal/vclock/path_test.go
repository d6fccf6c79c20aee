package vclock

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cursorDelay is a Delayer whose every draw moves it, so the order of
// the draws shows.
type cursorDelay int

func (cur *cursorDelay) Delay(n int) time.Duration {
	*cur++
	return time.Duration(n+int(*cur)%3) * time.Microsecond
}

// pathStorm runs workers that each chain, round after round, a slot
// claim on a contended Sem, a hold, a release, a counter update and a
// sleep drawn from a shared cursor (so the order of the draws shows),
// either as one Path or as one goroutine step each. It returns, per
// step chain, the virtual time it ended at, the worker and the counter
// and cursor values it left.
func pathStorm(t *testing.T, seed uint64, onPath bool) []string {
	t.Helper()
	Enable(0, seed)
	defer Disable()
	const workers, rounds = 6, 25
	sem := NewSem(2)
	var ctr atomic.Int64
	var cursor cursorDelay
	var mu sync.Mutex
	var log []string
	wg := NewWaitGroup()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		Go(func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				hold := time.Duration(1+(r+w)%3) * time.Microsecond
				if onPath {
					var p Path
					p.Acquire(sem)
					p.Sleep(hold)
					p.Release(sem)
					p.Add(&ctr, 1)
					p.SleepDrawn(&cursor, w%2)
					p.Run()
				} else {
					sem.Acquire()
					Sleep(hold)
					sem.Release()
					ctr.Add(1)
					Sleep(cursor.Delay(w % 2))
				}
				mu.Lock()
				log = append(log, fmt.Sprintf("%d w%d ctr=%d cursor=%d", Now(), w, ctr.Load(), cursor))
				mu.Unlock()
			}
		})
	}
	wg.Wait()
	if err := Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestPathMatchesSteps: a Path runs its steps at the instants, in the
// order and with the tie-break draws the goroutine would have taken
// stepping through them itself, under three seeds.
func TestPathMatchesSteps(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2} {
		before := Counters()
		steps := pathStorm(t, seed, false)
		mid := Counters()
		paths := pathStorm(t, seed, true)
		after := Counters()
		if !reflect.DeepEqual(paths, steps) {
			t.Fatalf("seed %d: path order differs from the step order:\n paths: %v\n steps: %v", seed, paths, steps)
		}
		if after.PathSteps == mid.PathSteps || after.Switches-mid.Switches >= mid.Switches-before.Switches {
			t.Errorf("seed %d: paths ran %d steps in hand-offs, %d switches against %d step by step",
				seed, after.PathSteps-mid.PathSteps, after.Switches-mid.Switches, mid.Switches-before.Switches)
		}
	}
}

// TestPathOffClock: with the clock off a Path's steps run on the
// caller as they are added — sleeps are nothing, a delay is still
// drawn, slots are claimed and given back, counters move — and Run
// finds nothing left.
func TestPathOffClock(t *testing.T) {
	sem := NewSem(1)
	var ctr atomic.Int64
	var draws cursorDelay
	var p Path
	p.Acquire(sem)
	if sem.free != 0 {
		t.Fatal("the slot was not claimed when the step was added")
	}
	p.Sleep(time.Hour)
	p.SleepDrawn(&draws, 0)
	p.Release(sem)
	p.Add(&ctr, 5)
	start := time.Now()
	p.Run()
	if time.Since(start) > time.Minute || draws != 1 || ctr.Load() != 5 || p.n != 0 {
		t.Fatalf("off-clock path: draws %d, counter %d, %d steps left", draws, ctr.Load(), p.n)
	}
	sem.Acquire() // the slot came back
	sem.Release()
}

// TestPathFromDriverPanics: under the active clock a Path is a
// model-only wait.
func TestPathFromDriverPanics(t *testing.T) {
	withClock(t, func() {
		defer func() {
			if r := recover(); r != ErrUnregistered {
				t.Fatalf("recovered %v, want ErrUnregistered", r)
			}
		}()
		var p Path
		p.Sleep(time.Microsecond)
		p.Run()
	})
}

// BenchmarkPathRun runs a four-step Path — claim a slot of a Sem two
// model goroutines contend for, hold it, give it back, count — on each
// of the two. A Path lives on the caller's stack and its steps run in
// a buffer the goroutine keeps, so a run allocates nothing.
func BenchmarkPathRun(b *testing.B) {
	Enable(0, DefaultSeed)
	defer Disable()
	sem := NewSem(1)
	var ctr atomic.Int64
	wg := NewWaitGroup()
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		Go(func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				var p Path
				p.Acquire(sem)
				p.Sleep(time.Microsecond)
				p.Release(sem)
				p.Add(&ctr, 1)
				p.Run()
			}
		})
	}
	wg.Wait()
	b.StopTimer()
	if err := Quiesce(5 * time.Second); err != nil {
		b.Fatal(err)
	}
}

// TestDriverWokenAtTSeesNoPathStepDueAtT: a driver's SleepOutside timer
// runs first at its instant, ahead of a path step queued for that
// instant before it, and the driver it wakes moves while the timer holds
// the clock: it reads the model as it stood before the step.
func TestDriverWokenAtTSeesNoPathStepDueAtT(t *testing.T) {
	var ctr atomic.Int64
	withClock(t, func() {
		timers := func() int { _, _, _, n := Stats(); return n }
		Go(func() {
			// Ready at 0, this goroutine keeps the path's sleep off the
			// fast path, then holds the clock until the driver's timer
			// is set.
			Go(func() {
				for timers() < 2 {
					runtime.Gosched()
				}
			})
			var p Path
			p.Sleep(5 * time.Microsecond)
			p.Add(&ctr, 1)
			p.Run()
		})
		// Set the timer once the path's step due at 5µs is queued.
		for timers() < 1 {
			runtime.Gosched()
		}
		SleepOutside(5 * time.Microsecond)
		if now, n := Now(), ctr.Load(); now != 5000 || n != 0 {
			t.Errorf("driver back at %d with counter %d, want 5000 and 0 (no step due at its instant run yet)", now, n)
		}
	})
	if ctr.Load() != 1 || Now() != 5000 {
		t.Fatalf("path ended at %d with counter %d, want 5000 and 1", Now(), ctr.Load())
	}
}

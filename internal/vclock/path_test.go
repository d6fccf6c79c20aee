package vclock

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
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

// The hand-off kinds a handStorm runs as Path steps; the rest it runs as
// one call each.
const (
	kPush = 1 << iota
	kPop
	kWait
	kFire
	kAll = kPush | kPop | kWait | kFire
)

// chain is one goroutine's operations in a handStorm: each of the kinds
// in onPath (and, once any kind is, every sleep, slot and counter step)
// is a step of one Path, the others one call each, run after the Path's
// steps so far. end runs what is queued and returns the error that ended
// the chain; a chain that has ended runs nothing more until then.
type chain struct {
	p      Path
	onPath int
	err    error
}

// path appends to the Path unless the chain has ended.
func (ch *chain) path(add func()) {
	if ch.err == nil {
		add()
	}
}

// call runs the Path's steps so far, then f, unless the chain has ended.
func (ch *chain) call(f func() error) {
	if err := ch.p.Run(); ch.err == nil {
		ch.err = err
	}
	if ch.err == nil {
		ch.err = f()
	}
}

// step is an operation of the given kind: a Path step or a call.
func (ch *chain) step(kind int, add func(), f func() error) {
	if ch.onPath&kind != 0 {
		ch.path(add)
	} else {
		ch.call(f)
	}
}

// timed is a sleep, slot or counter operation: a Path step unless every
// operation is a call.
func (ch *chain) timed(add func(), f func()) {
	ch.step(^0, add, func() error { f(); return nil })
}

func (ch *chain) end() error {
	ch.call(func() error { return nil })
	err := ch.err
	ch.err = nil
	return err
}

// stormReq is a handStorm request: the reply event and the reply as the
// client's wait took it.
type stormReq struct {
	id    int
	reply Event
	resp  []byte
}

// respDelay draws a delay from the length of the reply its wait step
// took.
type respDelay struct{ resp *[]byte }

func (r respDelay) Delay(int) time.Duration { return time.Duration(len(*r.resp)) * time.Microsecond }

var errStorm = errors.New("storm: server error")

// handStorm runs a request/reply model whose hand-offs run as Path steps
// for the kinds in onPath and as one call each otherwise: clients with
// tied think times push requests onto one queue and wait for the reply,
// then sleep a delay drawn from its length; two servers pop them, hold a
// contended slot, fire the reply (every fifth with an error, which ends
// the client's chain at its wait) and pop the next; a closer closes the
// queue mid-run, fails the requests still queued, and the servers' pops
// end. It returns one line per chain end: virtual time, goroutine, what
// ended and the counter.
func handStorm(t *testing.T, seed uint64, onPath int) []string {
	t.Helper()
	Enable(0, seed)
	defer Disable()
	const clients, rounds = 5, 12
	q := NewQueue[*stormReq]()
	sem := NewSem(1)
	var ctr atomic.Int64
	var mu sync.Mutex
	var log []string
	logf := func(format string, args ...any) {
		mu.Lock()
		log = append(log, fmt.Sprintf("%d %d ", Now(), Seq())+fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	wg := NewWaitGroup()
	for s := 0; s < 2; s++ {
		wg.Add(1)
		Go(func() {
			defer wg.Done()
			ch := chain{onPath: onPath}
			hold := func(d time.Duration) {
				ch.timed(func() { ch.p.Acquire(sem); ch.p.Sleep(d); ch.p.Release(sem) }, func() { sem.Acquire(); Sleep(d); sem.Release() })
			}
			var r *stormReq
			pop := func() {
				ch.step(kPop, func() { q.PopStep(&ch.p, &r) }, func() error {
					var ok bool
					if r, ok = q.Pop(); !ok {
						return ErrClosed
					}
					return nil
				})
				ch.timed(func() { ch.p.Sleep(3 * time.Microsecond) }, func() { Sleep(3 * time.Microsecond) })
				hold(time.Microsecond)
			}
			pop()
			for ch.end() == nil {
				val, err := make([]byte, 1+r.id%4), error(nil)
				if r.id%5 == 4 {
					err = errStorm
				}
				hold(2 * time.Microsecond)
				ch.step(kFire, func() { ch.p.Fire(&r.reply, val, err) }, func() error { r.reply.Fire(val, err); return nil })
				pop()
			}
			logf("server %d closed, ctr=%d", s, ctr.Load())
		})
	}
	for w := 0; w < clients; w++ {
		wg.Add(1)
		Go(func() {
			defer wg.Done()
			ch := chain{onPath: onPath}
			for k := 0; k < rounds; k++ {
				r := &stormReq{id: w*rounds + k}
				think := time.Duration(2+k%2) * time.Microsecond
				ch.timed(func() { ch.p.Sleep(think) }, func() { Sleep(think) })
				ch.step(kPush, func() { q.PushStep(&ch.p, r) }, func() error { return q.Push(r) })
				ch.step(kWait, func() { ch.p.Wait(&r.reply, &r.resp) }, func() error {
					var err error
					r.resp, err = r.reply.Wait()
					return err
				})
				ch.timed(func() { ch.p.SleepDrawn(respDelay{&r.resp}, 0) }, func() { Sleep(respDelay{&r.resp}.Delay(0)) })
				ch.timed(func() { ch.p.Add(&ctr, 1) }, func() { ctr.Add(1) })
				err := ch.end()
				logf("client %d.%d resp %d err %v ctr=%d", w, k, len(r.resp), err, ctr.Load())
			}
		})
	}
	wg.Add(1)
	Go(func() {
		defer wg.Done()
		Sleep(150 * time.Microsecond)
		rest := q.Close()
		logf("close, %d queued", len(rest))
		for _, r := range rest {
			r.reply.Fire(nil, ErrClosed)
		}
	})
	wg.Wait()
	if err := Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return log
}

// handOffsMatch holds handStorm with the kinds in onPath on Path steps
// to the all-calls run under three seeds, and checks the paths ran steps
// in hand-offs and switched goroutines fewer times.
func handOffsMatch(t *testing.T, onPath int) {
	t.Helper()
	for _, seed := range []uint64{0, 1, 2} {
		before := Counters()
		steps := handStorm(t, seed, 0)
		mid := Counters()
		paths := handStorm(t, seed, onPath)
		after := Counters()
		if !reflect.DeepEqual(paths, steps) {
			for i := range min(len(paths), len(steps)) {
				if paths[i] != steps[i] {
					t.Fatalf("seed %d: line %d differs:\n paths: %s\n steps: %s", seed, i+1, paths[i], steps[i])
				}
			}
			t.Fatalf("seed %d: %d lines on paths, %d step by step", seed, len(paths), len(steps))
		}
		for _, want := range []string{"err storm: server error", "err vclock: queue closed", "closed"} {
			if !strings.Contains(strings.Join(steps, "\n"), want) {
				t.Fatalf("seed %d: no %q in the storm:\n%s", seed, want, strings.Join(steps, "\n"))
			}
		}
		if after.PathSteps == mid.PathSteps || after.Switches-mid.Switches >= mid.Switches-before.Switches {
			t.Errorf("seed %d: paths ran %d steps in hand-offs, %d switches against %d call by call",
				seed, after.PathSteps-mid.PathSteps, after.Switches-mid.Switches, mid.Switches-before.Switches)
		}
	}
}

// TestPathPushMatchesSteps: a push step pushes at its instant and wakes
// the longest-waiting popper there, with the tie-break draw the
// goroutine's own Push would have taken, at instants other goroutines
// are due at too.
func TestPathPushMatchesSteps(t *testing.T) { handOffsMatch(t, kPush) }

// TestPathPopMatchesSteps: a pop step takes the item at its instant or
// waits in the queue's FIFO, and a Close while it waits ends the chain.
func TestPathPopMatchesSteps(t *testing.T) { handOffsMatch(t, kPop) }

// TestPathWaitMatchesSteps: a wait step takes the event's value at its
// instant, a later step's Delayer reads it, and an event fired with an
// error ends the chain there.
func TestPathWaitMatchesSteps(t *testing.T) { handOffsMatch(t, kWait) }

// TestPathFireMatchesSteps: a fire step fires at its instant and wakes
// the waiters as Fire would have.
func TestPathFireMatchesSteps(t *testing.T) { handOffsMatch(t, kFire) }

// TestPathHandOffsMatchSteps: every hand-off a step, as vnet's calls
// run them.
func TestPathHandOffsMatchSteps(t *testing.T) { handOffsMatch(t, kAll) }

// TestPathHandOffsOffClock: with the clock off the hand-off steps run on
// the caller as they are added, and a step that ends the chain drops
// the steps after it.
func TestPathHandOffsOffClock(t *testing.T) {
	q := NewQueue[*stormReq]()
	var ctr atomic.Int64
	r := &stormReq{id: 1}
	var p Path
	q.PushStep(&p, r)
	var got *stormReq
	q.PopStep(&p, &got)
	p.Fire(&r.reply, []byte("abc"), nil)
	p.Wait(&r.reply, &r.resp)
	p.SleepDrawn(respDelay{&r.resp}, 0)
	p.Add(&ctr, 1)
	if err := p.Run(); err != nil || got != r || string(r.resp) != "abc" || ctr.Load() != 1 {
		t.Fatalf("off-clock hand-offs: err %v, popped %v, reply %q, counter %d", err, got, r.resp, ctr.Load())
	}

	failed := &stormReq{}
	failed.reply.Fire([]byte("x"), errStorm)
	p.Wait(&failed.reply, &failed.resp)
	p.Add(&ctr, 1)
	if err := p.Run(); err != errStorm || ctr.Load() != 1 || string(failed.resp) != "x" {
		t.Fatalf("wait on a failed event: err %v, counter %d, value %q", err, ctr.Load(), failed.resp)
	}

	q.Close()
	q.PopStep(&p, &got)
	p.Add(&ctr, 1)
	q.PushStep(&p, r)
	if err := p.Run(); err != ErrClosed || ctr.Load() != 1 {
		t.Fatalf("pop from a closed queue: err %v, counter %d", err, ctr.Load())
	}
	if err := p.Run(); err != nil {
		t.Fatalf("an emptied Path ran to %v", err)
	}
}

// TestPopStepWokenByClose: a pop step that waits in an open queue ends
// its chain with ErrClosed when the queue closes, at the close's
// instant, and the steps after it do not run.
func TestPopStepWokenByClose(t *testing.T) {
	var ctr atomic.Int64
	var ended int64
	var err error
	withClock(t, func() {
		q := NewQueue[int]()
		wg := NewWaitGroup()
		wg.Add(2)
		Go(func() {
			defer wg.Done()
			var v int
			var p Path
			q.PopStep(&p, &v)
			p.Add(&ctr, 1)
			err = p.Run()
			ended = Now()
		})
		Go(func() {
			defer wg.Done()
			Sleep(4 * time.Microsecond)
			q.Close()
		})
		wg.Wait()
	})
	if err != ErrClosed || ended != 4000 || ctr.Load() != 0 {
		t.Fatalf("pop step ended at %d with %v, counter %d; want 4000, ErrClosed, 0", ended, err, ctr.Load())
	}
}

package paths

import (
	"fmt"
	"sync"

	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// ReduceFunc combines two contributions. It must be associative and
// commutative (the tree applies it in arrival order).
type ReduceFunc func(a, b int64) int64

// Sum is the global-sum reduction used by the paper's gsum benchmark.
func Sum(a, b int64) int64 { return a + b }

// CollectiveNotifier receives the synchronization-phase events the
// coscheduling controller keys off (section 4.1, "Coscheduling"). AllSent
// fires on a host once every local contributor has arrived and the
// combined value has been sent towards the next level; AllReleased fires
// once every local contributor has been unblocked by the broadcast.
type CollectiveNotifier interface {
	AllSent(host *vnet.Host)
	AllReleased(host *vnet.Host)
}

// Allreduce is the synchronizing collective wrapper of figure 1. It joins
// n contributor paths: each contributor's operation blocks until all n
// have arrived; the last arrival carries the combined value to the next
// wrapper (towards the root); the value that comes back releases all
// contributors.
//
// Each contributor must use its own Port, and each port must be driven by
// a single thread — the standard allreduce contract (every participant
// calls the operation once per iteration).
type Allreduce struct {
	base
	next     Wrapper
	reduce   ReduceFunc
	n        int
	notifier CollectiveNotifier

	mu      sync.Mutex
	cond    *vclock.Cond
	gen     uint64 // completed rounds
	arrived int
	leaving int // contributors not yet departed from the current round
	acc     int64
	result  int64
	resErr  error
	aborted error // set by Abort: the collective has failed for good
}

// NewAllreduce creates an allreduce wrapper on host joining n contributor
// ports, combining with reduce, and forwarding the combined value to next.
func NewAllreduce(name string, host *vnet.Host, n int, reduce ReduceFunc, next Wrapper) (*Allreduce, error) {
	if n < 1 {
		return nil, fmt.Errorf("paths: allreduce %q: n %d < 1", name, n)
	}
	if next == nil {
		return nil, fmt.Errorf("paths: allreduce %q: %w", name, ErrNoNext)
	}
	if reduce == nil {
		return nil, fmt.Errorf("paths: allreduce %q: nil reduce func", name)
	}
	a := &Allreduce{base: base{name, host}, next: next, reduce: reduce, n: n}
	a.cond = vclock.NewCond(&a.mu)
	return a, nil
}

// SetNotifier installs the coscheduling notifier. Must be called before
// the wrapper is used.
func (a *Allreduce) SetNotifier(n CollectiveNotifier) { a.notifier = n }

// Fanin returns the number of contributor ports.
func (a *Allreduce) Fanin() int { return a.n }

// Rounds reports the number of completed allreduce rounds.
func (a *Allreduce) Rounds() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gen
}

// Abort fails the collective for good: contributors blocked in the
// current round, and every later Op, return err. A contributor that lost
// its path to the tree never arrives again, so without this the survivors
// of a broken round wait for it forever.
func (a *Allreduce) Abort(err error) {
	a.mu.Lock()
	a.aborted = err
	a.cond.Broadcast()
	a.mu.Unlock()
}

// Op contributes directly to the wrapper. Most callers should go through
// a Port so instrumentation can distinguish contributors; Op itself is the
// shared synchronization point.
func (a *Allreduce) Op(ctx *Ctx, req Request) (Reply, error) {
	a.mu.Lock()
	if err := a.aborted; err != nil {
		a.mu.Unlock()
		return Reply{}, err
	}
	g := a.gen
	if a.arrived == 0 {
		a.acc = req.Value
	} else {
		a.acc = a.reduce(a.acc, req.Value)
	}
	a.arrived++
	if a.arrived == a.n {
		// Last arrival: carry the combined value towards the root in
		// this thread's context while the others wait.
		up := Request{Kind: req.Kind, Value: a.acc}
		a.mu.Unlock()
		if a.notifier != nil {
			// The combined value is on its way to the next level;
			// coscheduling strategy 1 opens its window here.
			a.notifier.AllSent(a.host)
		}
		rep, err := a.next.Op(ctx, up)
		a.mu.Lock()
		a.result, a.resErr = rep.Value, err
		a.arrived = 0
		a.leaving = a.n
		a.gen++
		a.cond.Broadcast()
		a.mu.Unlock()
		a.depart()
		if err != nil {
			return Reply{}, err
		}
		return Reply{Value: rep.Value}, nil
	}
	for a.gen == g && a.aborted == nil {
		a.cond.Wait()
	}
	if err := a.aborted; err != nil && a.gen == g {
		a.mu.Unlock()
		return Reply{}, err
	}
	res, err := a.result, a.resErr
	a.mu.Unlock()
	a.depart()
	if err != nil {
		return Reply{}, err
	}
	return Reply{Value: res}, nil
}

// depart marks one contributor as unblocked; the last departure fires the
// strategy-2 coscheduling event ("analysis threads are blocked until all
// participating threads are unblocked").
func (a *Allreduce) depart() {
	a.mu.Lock()
	a.leaving--
	fire := a.leaving == 0
	a.mu.Unlock()
	if fire && a.notifier != nil {
		a.notifier.AllReleased(a.host)
	}
}

// Port returns the contributor-i entry wrapper. Ports carry a contributor
// label so event collectors placed on them record per-contributor
// timestamps (the paper's EC1..EC8 in figure 1).
func (a *Allreduce) Port(i int) Wrapper {
	return &arPort{
		base: base{fmt.Sprintf("%s.port%d", a.name, i), a.host},
		ar:   a,
	}
}

type arPort struct {
	base
	ar *Allreduce
}

func (p *arPort) Op(ctx *Ctx, req Request) (Reply, error) { return p.ar.Op(ctx, req) }

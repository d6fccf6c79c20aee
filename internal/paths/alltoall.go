package paths

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// Exchange is the all-to-all wrapper used between clusters on WAN
// multi-clusters (section 5: "the inter-cluster allreduce is replaced by
// an all-to-all for improved performance, as in MagPIe"). Each cluster's
// root participates in the exchange: per round it sends its cluster's
// combined value to every peer in parallel, waits for all peers' values,
// and reduces locally — one WAN latency instead of two tree traversals.
//
// Wiring: create one Exchange per participant, register each with its
// host's Service via RegisterExchangeTarget, then connect every pair with
// stubs through ConnectPeer. Each participant must be driven by a single
// thread issuing one operation per round, in lockstep with its peers.
type Exchange struct {
	base
	id     int
	k      int
	reduce ReduceFunc
	next   Wrapper // optional: receives the reduced value each round

	peerMu sync.RWMutex
	peers  map[int]Wrapper // stubs to remote deposit targets

	mu      sync.Mutex
	cond    *vclock.Cond
	round   uint64
	rounds  map[uint64]*exchangeRound
	aborted error // set by Abort: the exchange has failed for good
}

type exchangeRound struct {
	n   int
	acc int64
}

// NewExchange creates participant id of k in an all-to-all exchange.
func NewExchange(name string, host *vnet.Host, id, k int, reduce ReduceFunc, next Wrapper) (*Exchange, error) {
	if k < 1 || id < 0 || id >= k {
		return nil, fmt.Errorf("paths: exchange %q: id %d of %d invalid", name, id, k)
	}
	if reduce == nil {
		return nil, fmt.Errorf("paths: exchange %q: nil reduce func", name)
	}
	e := &Exchange{
		base:   base{name, host},
		id:     id,
		k:      k,
		reduce: reduce,
		next:   next,
		peers:  make(map[int]Wrapper),
		rounds: make(map[uint64]*exchangeRound),
	}
	e.cond = vclock.NewCond(&e.mu)
	return e, nil
}

// Participants returns the exchange size k.
func (e *Exchange) Participants() int { return e.k }

// ConnectPeer installs the stub used to deposit values at peer id.
func (e *Exchange) ConnectPeer(id int, stub Wrapper) error {
	if id == e.id || id < 0 || id >= e.k {
		return fmt.Errorf("paths: exchange %s: bad peer id %d", e.name, id)
	}
	e.peerMu.Lock()
	defer e.peerMu.Unlock()
	e.peers[id] = stub
	return nil
}

// RegisterExchangeTarget registers e's deposit endpoint with svc and
// returns the target id peers should address their stubs to.
func RegisterExchangeTarget(svc *Service, e *Exchange) uint32 {
	return svc.Register(&exchangeTarget{
		base: base{e.name + ".deposit", e.host},
		ex:   e,
	})
}

// exchangeTarget is the service-side endpoint receiving peer deposits.
type exchangeTarget struct {
	base
	ex *Exchange
}

func (t *exchangeTarget) Op(ctx *Ctx, req Request) (Reply, error) {
	if len(req.Data) != 12 {
		return Reply{}, fmt.Errorf("paths: %s: bad deposit frame (%d bytes)", t.name, len(req.Data))
	}
	round := binary.LittleEndian.Uint64(req.Data[:8])
	from := int(int32(binary.LittleEndian.Uint32(req.Data[8:12])))
	t.ex.deposit(from, round, req.Value)
	return Reply{}, nil
}

// deposit records a peer's (or our own) value for a round.
func (e *Exchange) deposit(from int, round uint64, v int64) {
	e.mu.Lock()
	st := e.rounds[round]
	if st == nil {
		st = &exchangeRound{}
		e.rounds[round] = st
	}
	if st.n == 0 {
		st.acc = v
	} else {
		st.acc = e.reduce(st.acc, v)
	}
	st.n++
	if st.n == e.k {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	_ = from
}

// Abort fails the exchange for good (see Allreduce.Abort): a participant
// waiting for a peer's value, and every later Op, return err.
func (e *Exchange) Abort(err error) {
	e.mu.Lock()
	e.aborted = err
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Op runs one exchange round with the caller's contribution.
func (e *Exchange) Op(ctx *Ctx, req Request) (Reply, error) {
	e.mu.Lock()
	if err := e.aborted; err != nil {
		e.mu.Unlock()
		return Reply{}, err
	}
	round := e.round
	e.round++
	e.mu.Unlock()

	e.peerMu.RLock()
	if len(e.peers) != e.k-1 {
		n := len(e.peers)
		e.peerMu.RUnlock()
		return Reply{}, fmt.Errorf("paths: exchange %s: %d of %d peers connected", e.name, n, e.k-1)
	}
	// Sends start in peer order, not map order: under the virtual clock
	// the order goroutines start in is part of the schedule.
	ids := make([]int, 0, e.k-1)
	for id := range e.peers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	stubs := make([]Wrapper, 0, e.k-1)
	for _, id := range ids {
		stubs = append(stubs, e.peers[id])
	}
	e.peerMu.RUnlock()

	e.deposit(e.id, round, req.Value)

	// Send to all peers in parallel; the WAN latencies overlap.
	frame := make([]byte, 12)
	binary.LittleEndian.PutUint64(frame[:8], round)
	binary.LittleEndian.PutUint32(frame[8:12], uint32(int32(e.id)))
	var sendMu sync.Mutex
	var sendErr error
	wg := vclock.NewWaitGroup()
	for _, s := range stubs {
		s := s
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			if _, err := s.Op(ctx, Request{Kind: OpWrite, Value: req.Value, Data: frame}); err != nil {
				sendMu.Lock()
				if sendErr == nil {
					sendErr = err
				}
				sendMu.Unlock()
			}
		})
	}
	wg.Wait()
	if sendErr != nil {
		return Reply{}, fmt.Errorf("paths: exchange %s: %w", e.name, sendErr)
	}

	e.mu.Lock()
	for e.rounds[round].n < e.k && e.aborted == nil {
		e.cond.Wait()
	}
	if err := e.aborted; err != nil && e.rounds[round].n < e.k {
		e.mu.Unlock()
		return Reply{}, err
	}
	acc := e.rounds[round].acc
	delete(e.rounds, round)
	e.mu.Unlock()

	if e.next != nil {
		if _, err := e.next.Op(ctx, Request{Kind: OpWrite, Value: acc}); err != nil {
			return Reply{}, err
		}
	}
	return Reply{Value: acc}, nil
}

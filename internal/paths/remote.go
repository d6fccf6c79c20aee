package paths

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/vnet"
	"eventspace/internal/wire"
)

// Inter-host communication: a Remote wrapper (the paper's "stub") encodes
// the operation and sends it over a connection; a Service on the far host
// is invoked by the connection's communication thread and continues the
// operation down a registered wrapper chain.

// Service dispatches incoming operations to registered target wrappers.
// One service per host is typical; its Handler is installed on every
// connection whose communication thread should continue paths on that
// host.
type Service struct {
	mu      sync.RWMutex
	nextID  uint32
	targets map[uint32]*target
}

// target is one registered continuation and the payload size of its
// previous read reply, which sizes the next reply frame.
type target struct {
	w        Wrapper
	lastSize atomic.Int64
}

// NewService returns an empty dispatch table.
func NewService() *Service {
	return &Service{targets: make(map[uint32]*target)}
}

// Register adds a continuation wrapper and returns its target id for use
// by remote stubs.
func (s *Service) Register(w Wrapper) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.targets[s.nextID] = &target{w: w}
	return s.nextID
}

// Handler returns the vnet.Handler that decodes operations and invokes
// the target wrapper in the communication thread's context.
//
// The handler never returns a Go error: every application-level failure
// (malformed request, unknown target, a wrapper Op error) is encoded
// into the reply as a status-tagged error frame. That keeps the two
// failure classes separable at the caller — a transport error can only
// come from the transport itself.
//
// A read is handed the reply frame to fill: a fresh buffer per call, the
// header's room reserved in front and the rest — as much as the target's
// previous reply took — as the request's window, so a chain that appends
// its payload there has built the frame in place and only the header is
// left to write.
func (s *Service) Handler() vnet.Handler {
	return func(payload []byte) ([]byte, error) {
		id, ctx, req, err := decodeRequest(payload)
		if err != nil {
			return encodeErrorReply(err), nil
		}
		s.mu.RLock()
		t, ok := s.targets[id]
		s.mu.RUnlock()
		if !ok {
			return encodeErrorReply(fmt.Errorf("paths: unknown remote target %d", id)), nil
		}
		var frame []byte
		if req.Kind == OpRead {
			frame = make([]byte, replyHeaderLen, replyHeaderLen+int(t.lastSize.Load()))
			req.Window = window(frame)
		}
		rep, err := t.w.Op(&ctx, req)
		if err != nil {
			return encodeErrorReply(err), nil
		}
		if frame != nil {
			t.lastSize.Store(int64(len(rep.Data)))
		}
		return encodeReply(frame, replyOK, rep), nil
	}
}

// Remote is the stub wrapper: it forwards operations over a Caller to a
// target registered with the far host's Service. The calling thread blocks
// for the full modelled round trip, exactly as a thread blocks in the
// paper's stub while the communication thread works.
//
// With a RetryPolicy installed (SetRetry), transport faults are retried
// with backoff; with a redial function installed (SetRedial), a dead
// connection is replaced before the retry. Application errors from the
// remote chain are returned immediately, never retried.
type Remote struct {
	base

	mu     sync.Mutex
	caller vnet.Caller
	target uint32

	retry  *RetryPolicy
	redial func(stale vnet.Caller) (vnet.Caller, uint32, error)

	// The fault machinery's activations, allocated apart from the stub
	// so a registry reading them (RegisterCounts) keeps only them alive.
	retries   *atomic.Uint64
	reconnect *atomic.Uint64

	met atomic.Pointer[metrics.Op]
}

// NewRemote creates a stub on host that invokes target over caller.
func NewRemote(name string, host *vnet.Host, caller vnet.Caller, target uint32) *Remote {
	return &Remote{
		base: base{name, host}, caller: caller, target: target,
		retries: new(atomic.Uint64), reconnect: new(atomic.Uint64),
	}
}

// SetRetry installs a retry policy. nil restores single-attempt calls.
func (r *Remote) SetRetry(p *RetryPolicy) *Remote {
	r.mu.Lock()
	r.retry = p
	r.mu.Unlock()
	return r
}

// SetRedial installs the reconnect path: called with the stale caller
// when the stub's connection is dead, it returns a fresh caller and
// target id. The stale caller is closed after the new one is installed,
// so owners tracking connections can drop the stale one inside f.
func (r *Remote) SetRedial(f func(stale vnet.Caller) (vnet.Caller, uint32, error)) *Remote {
	r.mu.Lock()
	r.redial = f
	r.mu.Unlock()
	return r
}

// SetMetrics installs the stub's self-metrics site: each call's latency
// and reply bytes, retries included in the span. nil disables.
func (r *Remote) SetMetrics(op *metrics.Op) *Remote {
	r.met.Store(op)
	return r
}

// RegisterCounts hands reg the stub's retry and redial counts, as
// counters prefix+".retries" and prefix+".redials" (nil reg: none).
func (r *Remote) RegisterCounts(reg *metrics.Registry, prefix string) {
	reg.Count(prefix+".retries", r.retries)
	reg.Count(prefix+".redials", r.reconnect)
}

func (r *Remote) transport() (vnet.Caller, uint32, *RetryPolicy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.caller, r.target, r.retry
}

// tryReconnect swaps in a fresh connection via the redial function.
func (r *Remote) tryReconnect(stale vnet.Caller) bool {
	r.mu.Lock()
	redial := r.redial
	if redial == nil || r.caller != stale {
		// No reconnect path, or someone else already replaced the
		// connection — use whatever is installed now.
		r.mu.Unlock()
		return redial != nil
	}
	r.mu.Unlock()
	caller, target, err := redial(stale)
	if err != nil {
		return false
	}
	r.mu.Lock()
	old := r.caller
	r.caller, r.target = caller, target
	r.mu.Unlock()
	old.Close()
	r.reconnect.Add(1)
	return true
}

// Op encodes the request, performs the remote call, and decodes the
// reply, retrying transport faults per the installed policy.
func (r *Remote) Op(ctx *Ctx, req Request) (Reply, error) {
	op := r.met.Load()
	if op == nil {
		return r.call(ctx, req)
	}
	start := hrtime.Now()
	rep, err := r.call(ctx, req)
	op.Record(hrtime.Since(start), len(rep.Data), err)
	return rep, err
}

func (r *Remote) call(ctx *Ctx, req Request) (Reply, error) {
	start := hrtime.Now()
	for attempt := 1; ; attempt++ {
		caller, target, policy := r.transport()
		resp, err := caller.Call(encodeRequest(target, ctx, req))
		if err == nil {
			return decodeReply(resp)
		}
		err = fmt.Errorf("paths: %s: %w", r.name, err)
		if policy == nil || !Retryable(err) || attempt >= policy.attempts() {
			return Reply{}, err
		}
		if policy.Deadline > 0 && hrtime.Since(start) >= int64(policy.Deadline) {
			return Reply{}, err
		}
		hrtime.Sleep(policy.Backoff(attempt))
		r.retries.Add(1)
		if ConnDead(err) {
			r.tryReconnect(caller)
		}
	}
}

// Caller returns the stub's current transport (post-redial). Owners
// tracking connections use it to untrack the final one on teardown.
func (r *Remote) Caller() vnet.Caller {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.caller
}

// Close releases the stub's connection.
func (r *Remote) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.caller.Close()
}

// Wire format. Native little-endian, mirroring the paper's "binary format
// in memory using native byte ordering": a request frame is declared by
// request, a reply frame by reply.
const (
	replyOK       byte = 0
	replyAppError byte = 1
)

// request walks a request frame,
//
//	target u32 | kind u16 | value i64 | threadLen u16 | thread | dataLen u32 | data
//
// and returns the data length it declares, which a read checks against
// the data actually there.
func request(c *wire.Codec, target *uint32, ctx *Ctx, req *Request) (dataLen uint32) {
	c.U32(target)
	c.U16((*uint16)(&req.Kind))
	c.I64(&req.Value)
	c.Str(&ctx.Thread)
	dataLen = uint32(len(req.Data))
	c.U32(&dataLen)
	c.Rest(&req.Data)
	return dataLen
}

func encodeRequest(target uint32, ctx *Ctx, req Request) []byte {
	var cx Ctx
	if ctx != nil {
		cx = *ctx
	}
	c := wire.Writer(make([]byte, 0, 20+len(cx.Thread)+len(req.Data)))
	request(&c, &target, &cx, &req)
	return c.Bytes()
}

func decodeRequest(buf []byte) (target uint32, ctx Ctx, req Request, err error) {
	c := wire.Reader(buf)
	n := request(&c, &target, &ctx, &req)
	switch {
	case len(buf) < 16:
		err = fmt.Errorf("paths: short request frame (%d bytes)", len(buf))
	case c.Err() != nil:
		err = fmt.Errorf("paths: truncated request frame")
	case int(n) != len(req.Data):
		err = fmt.Errorf("paths: request data length %d, frame has %d", n, len(req.Data))
	default:
		return target, ctx, req, nil
	}
	return 0, Ctx{}, Request{}, err
}

// replyHeaderLen is the size of an OK reply frame up to its data.
const replyHeaderLen = 1 + 2 + 8 + 4

// reply walks a reply frame, a status byte and then
//
//	replyOK:       ret i16 | value i64 | dataLen u32 | data
//	replyAppError: the application error message (UTF-8) as data
//
// and returns the data length an OK frame declares, as request does.
func reply(c *wire.Codec, status *byte, rep *Reply) (dataLen uint32) {
	if c.U8(status); *status == replyOK {
		c.I16(&rep.Ret)
		c.I64(&rep.Value)
		dataLen = uint32(len(rep.Data))
		c.U32(&dataLen)
	}
	c.Rest(&rep.Data)
	return dataLen
}

// encodeReply encodes rep as an OK frame. frame is the header's room a
// Handler reserved in front of the window it handed down (nil: none); a
// payload the chain appended to that window is already in place behind
// it and only the header is written. A payload from anywhere else is
// copied behind the header, into a new frame if this one is too short.
func encodeReply(frame []byte, status byte, rep Reply) []byte {
	if cap(frame) < replyHeaderLen+len(rep.Data) {
		frame = make([]byte, 0, replyHeaderLen+len(rep.Data))
	}
	c := wire.Writer(frame[:0])
	reply(&c, &status, &rep)
	return c.Bytes()
}

// encodeErrorReply encodes an application error as a status-tagged frame.
func encodeErrorReply(err error) []byte {
	return encodeReply(nil, replyAppError, Reply{Data: []byte(err.Error())})
}

func decodeReply(buf []byte) (Reply, error) {
	var status byte
	var rep Reply
	c := wire.Reader(buf)
	n := reply(&c, &status, &rep)
	switch {
	case len(buf) == 0:
		return Reply{}, fmt.Errorf("paths: empty reply frame")
	case status == replyAppError:
		return Reply{}, &RemoteError{Msg: string(rep.Data)}
	case status != replyOK:
		return Reply{}, fmt.Errorf("paths: unknown reply status %d", status)
	case c.Err() != nil:
		return Reply{}, fmt.Errorf("paths: short reply frame (%d bytes)", len(buf))
	case int(n) != len(rep.Data):
		return Reply{}, fmt.Errorf("paths: reply data length %d, frame has %d", n, len(rep.Data))
	}
	return rep, nil
}

package paths

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/vnet"
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
		return encodeReply(frame, rep), nil
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

	retries   atomic.Uint64
	reconnect atomic.Uint64

	met atomic.Pointer[RemoteMetrics]
}

// RemoteMetrics is a stub's optional self-metrics wiring: Op records
// each call's latency and reply bytes (retries included in the span);
// Retries and Redials count the fault machinery's activations. Any
// field may be nil.
type RemoteMetrics struct {
	Op      *metrics.Op
	Retries *metrics.Counter
	Redials *metrics.Counter
}

// NewRemote creates a stub on host that invokes target over caller.
func NewRemote(name string, host *vnet.Host, caller vnet.Caller, target uint32) *Remote {
	return &Remote{base: base{name, host}, caller: caller, target: target}
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

// SetMetrics installs the stub's self-metrics sites. nil disables.
func (r *Remote) SetMetrics(m *RemoteMetrics) *Remote {
	r.met.Store(m)
	return r
}

// Retries reports transport-fault retries performed; Reconnects reports
// successful redials.
func (r *Remote) Retries() uint64    { return r.retries.Load() }
func (r *Remote) Reconnects() uint64 { return r.reconnect.Load() }

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
	if m := r.met.Load(); m != nil {
		m.Redials.Inc()
	}
	return true
}

// Op encodes the request, performs the remote call, and decodes the
// reply, retrying transport faults per the installed policy.
func (r *Remote) Op(ctx *Ctx, req Request) (Reply, error) {
	m := r.met.Load()
	if m == nil || m.Op == nil {
		return r.call(ctx, req)
	}
	start := hrtime.Now()
	rep, err := r.call(ctx, req)
	m.Op.Record(hrtime.Since(start), len(rep.Data), err)
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
		if m := r.met.Load(); m != nil {
			m.Retries.Inc()
		}
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
// in memory using native byte ordering".
//
// request: target u32 | kind u16 | value i64 | threadLen u16 | thread |
//
//	dataLen u32 | data
//
// reply:   status u8 | body
//
//	status 0: body = ret i16 | value i64 | dataLen u32 | data
//	status 1: body = application error message (UTF-8)
const (
	replyOK       byte = 0
	replyAppError byte = 1
)

func encodeRequest(target uint32, ctx *Ctx, req Request) []byte {
	thread := ""
	if ctx != nil {
		thread = ctx.Thread
	}
	buf := make([]byte, 0, 20+len(thread)+len(req.Data))
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], target)
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint16(tmp[:2], uint16(req.Kind))
	buf = append(buf, tmp[:2]...)
	binary.LittleEndian.PutUint64(tmp[:8], uint64(req.Value))
	buf = append(buf, tmp[:8]...)
	binary.LittleEndian.PutUint16(tmp[:2], uint16(len(thread)))
	buf = append(buf, tmp[:2]...)
	buf = append(buf, thread...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(req.Data)))
	buf = append(buf, tmp[:4]...)
	buf = append(buf, req.Data...)
	return buf
}

func decodeRequest(buf []byte) (target uint32, ctx Ctx, req Request, err error) {
	if len(buf) < 16 {
		return 0, Ctx{}, Request{}, fmt.Errorf("paths: short request frame (%d bytes)", len(buf))
	}
	target = binary.LittleEndian.Uint32(buf[0:4])
	req.Kind = OpKind(binary.LittleEndian.Uint16(buf[4:6]))
	req.Value = int64(binary.LittleEndian.Uint64(buf[6:14]))
	tlen := int(binary.LittleEndian.Uint16(buf[14:16]))
	rest := buf[16:]
	if len(rest) < tlen+4 {
		return 0, Ctx{}, Request{}, fmt.Errorf("paths: truncated request frame")
	}
	ctx.Thread = string(rest[:tlen])
	rest = rest[tlen:]
	dlen := int(binary.LittleEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if len(rest) != dlen {
		return 0, Ctx{}, Request{}, fmt.Errorf("paths: request data length %d, frame has %d", dlen, len(rest))
	}
	if dlen > 0 {
		req.Data = rest
	}
	return target, ctx, req, nil
}

// replyHeaderLen is the size of an OK reply frame up to its data.
const replyHeaderLen = 1 + 2 + 8 + 4

// encodeReply encodes rep as an OK frame. frame is the header's room a
// Handler reserved in front of the window it handed down (nil: none); a
// payload the chain appended to that window is already in place behind
// it and only the header is written. A payload from anywhere else is
// copied behind the header, into a new frame if this one is too short.
func encodeReply(frame []byte, rep Reply) []byte {
	if cap(frame) < replyHeaderLen+len(rep.Data) {
		frame = make([]byte, replyHeaderLen, replyHeaderLen+len(rep.Data))
	}
	frame = frame[:replyHeaderLen]
	frame[0] = replyOK
	binary.LittleEndian.PutUint16(frame[1:3], uint16(rep.Ret))
	binary.LittleEndian.PutUint64(frame[3:11], uint64(rep.Value))
	binary.LittleEndian.PutUint32(frame[11:15], uint32(len(rep.Data)))
	return extend(frame, rep.Data)
}

// encodeErrorReply encodes an application error as a status-tagged frame.
func encodeErrorReply(err error) []byte {
	msg := err.Error()
	buf := make([]byte, 0, 1+len(msg))
	buf = append(buf, replyAppError)
	return append(buf, msg...)
}

func decodeReply(buf []byte) (Reply, error) {
	if len(buf) < 1 {
		return Reply{}, fmt.Errorf("paths: empty reply frame")
	}
	status, body := buf[0], buf[1:]
	switch status {
	case replyAppError:
		return Reply{}, &RemoteError{Msg: string(body)}
	case replyOK:
	default:
		return Reply{}, fmt.Errorf("paths: unknown reply status %d", status)
	}
	if len(body) < 14 {
		return Reply{}, fmt.Errorf("paths: short reply frame (%d bytes)", len(buf))
	}
	var rep Reply
	rep.Ret = int16(binary.LittleEndian.Uint16(body[0:2]))
	rep.Value = int64(binary.LittleEndian.Uint64(body[2:10]))
	dlen := int(binary.LittleEndian.Uint32(body[10:14]))
	rest := body[14:]
	if len(rest) != dlen {
		return Reply{}, fmt.Errorf("paths: reply data length %d, frame has %d", dlen, len(rest))
	}
	if dlen > 0 {
		rep.Data = rest
	}
	return rep, nil
}

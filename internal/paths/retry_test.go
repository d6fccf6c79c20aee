package paths

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/vnet"
)

func TestRetryableClassification(t *testing.T) {
	retryable := []error{
		vnet.ErrConnClosed,
		vnet.ErrTimeout,
		vnet.ErrHostDown,
		io.EOF,
		io.ErrUnexpectedEOF,
		fmt.Errorf("wrapped: %w", vnet.ErrConnClosed),
	}
	for _, err := range retryable {
		if !Retryable(err) {
			t.Errorf("Retryable(%v) = false", err)
		}
	}
	notRetryable := []error{
		nil,
		errors.New("paths: some application failure"),
		&RemoteError{Msg: "division by zero"},
		fmt.Errorf("wrapped: %w", &RemoteError{Msg: "x"}),
	}
	for _, err := range notRetryable {
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true", err)
		}
	}
	if !ConnDead(vnet.ErrConnClosed) || !ConnDead(io.EOF) {
		t.Error("dead-connection errors not classified as such")
	}
	if ConnDead(vnet.ErrTimeout) || ConnDead(vnet.ErrHostDown) {
		t.Error("timeout/host-down misclassified as dead connection")
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond, JitterSeed: 9}
	q := RetryPolicy{BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond, JitterSeed: 9}
	for a := 1; a <= 10; a++ {
		bp, bq := p.Backoff(a), q.Backoff(a)
		if bp != bq {
			t.Fatalf("attempt %d: %v != %v with equal seeds", a, bp, bq)
		}
		if bp < 50*time.Microsecond || bp > time.Millisecond {
			t.Fatalf("attempt %d: backoff %v out of [base/2, cap]", a, bp)
		}
	}
	if p.Backoff(1) >= p.Backoff(4) {
		t.Fatalf("backoff not growing: %v then %v", p.Backoff(1), p.Backoff(4))
	}
}

// flakyCaller fails the first n calls with err, then succeeds.
type flakyCaller struct {
	n     int
	err   error
	calls int
	reply Reply
}

func (f *flakyCaller) Call(payload []byte) ([]byte, error) {
	f.calls++
	if f.calls <= f.n {
		return nil, f.err
	}
	return encodeReply(nil, replyOK, f.reply), nil
}

func (f *flakyCaller) Close() error { return nil }

func TestRemoteRetriesTransientFault(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	fc := &flakyCaller{n: 2, err: vnet.ErrTimeout, reply: Reply{Value: 7}}
	r := NewRemote("stub", h, fc, 1).SetRetry(&RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Microsecond})
	rep, err := op(r, &Ctx{}, Request{Kind: OpRead})
	if err != nil || rep.Value != 7 {
		t.Fatalf("Op = %+v, %v", rep, err)
	}
	if fc.calls != 3 {
		t.Fatalf("calls = %d, want 3", fc.calls)
	}
	if r.retries.Load() != 2 {
		t.Fatalf("Retries = %d, want 2", r.retries.Load())
	}
}

func TestRemoteExhaustsAttempts(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	fc := &flakyCaller{n: 100, err: vnet.ErrTimeout}
	r := NewRemote("stub", h, fc, 1).SetRetry(&RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Microsecond})
	if _, err := op(r, &Ctx{}, Request{Kind: OpRead}); !errors.Is(err, vnet.ErrTimeout) {
		t.Fatalf("Op err = %v", err)
	}
	if fc.calls != 3 {
		t.Fatalf("calls = %d, want 3", fc.calls)
	}
}

func TestRemoteDoesNotRetryAppError(t *testing.T) {
	n, c1, _ := testNet(t)
	client, server := c1.Hosts()[0], c1.Hosts()[1]
	calls := 0
	failing := NewFunc("boom", server, func(ctx *Ctx, req Request) (Reply, error) {
		calls++
		return Reply{}, errors.New("application failure")
	})
	svc := NewService()
	target := svc.Register(failing)
	conn := n.Dial(client, server, svc.Handler())
	defer conn.Close()
	r := NewRemote("stub", client, conn, target).SetRetry(&RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Microsecond})
	_, err := op(r, &Ctx{}, Request{Kind: OpRead})
	if !IsRemote(err) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if Retryable(err) {
		t.Fatal("application error classified retryable")
	}
	if calls != 1 {
		t.Fatalf("remote op ran %d times, want 1", calls)
	}
}

func TestRemoteRedialsDeadConn(t *testing.T) {
	n, c1, _ := testNet(t)
	client, server := c1.Hosts()[0], c1.Hosts()[1]
	echo := NewFunc("echo", server, func(ctx *Ctx, req Request) (Reply, error) {
		return Reply{Value: req.Value}, nil
	})
	svc := NewService()
	target := svc.Register(echo)
	conn := n.Dial(client, server, svc.Handler())
	conn.Close() // the stub starts with a dead connection
	r := NewRemote("stub", client, conn, target).
		SetRetry(&RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Microsecond}).
		SetRedial(func(stale vnet.Caller) (vnet.Caller, uint32, error) {
			if stale != vnet.Caller(conn) {
				t.Errorf("redial got stale caller %v, want the original conn", stale)
			}
			return n.Dial(client, server, svc.Handler()), target, nil
		})
	rep, err := op(r, &Ctx{}, Request{Kind: OpWrite, Value: 5})
	if err != nil || rep.Value != 5 {
		t.Fatalf("Op = %+v, %v", rep, err)
	}
	if r.reconnect.Load() != 1 {
		t.Fatalf("Reconnects = %d, want 1", r.reconnect.Load())
	}
	r.Close()
}

// TestRemoteRegisterCounts: the counters a stub hands a registry are its
// own retry and redial counts, summed with every other stub's under the
// same prefix.
func TestRemoteRegisterCounts(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	reg := metrics.New()
	pol := &RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Microsecond}
	redial := func(vnet.Caller) (vnet.Caller, uint32, error) {
		return &flakyCaller{reply: Reply{Value: 1}}, 1, nil
	}
	var stubs []*Remote
	for i := 1; i <= 2; i++ {
		r := NewRemote("stub", h, &flakyCaller{n: i, err: vnet.ErrConnClosed}, 1).SetRetry(pol).SetRedial(redial)
		r.RegisterCounts(reg, "scope/stub")
		if _, err := op(r, &Ctx{}, Request{Kind: OpRead}); err != nil {
			t.Fatal(err)
		}
		stubs = append(stubs, r)
	}
	want := map[string]uint64{}
	for _, r := range stubs {
		want["scope/stub.retries"] += r.retries.Load()
		want["scope/stub.redials"] += r.reconnect.Load()
	}
	if want["scope/stub.retries"] != 2 || want["scope/stub.redials"] != 2 {
		t.Fatalf("stubs counted %v, want 2 retries and 2 redials", want)
	}
	got := reg.Snapshot().Counters
	if len(got) != len(want) {
		t.Fatalf("counters = %+v, want %v", got, want)
	}
	for _, c := range got {
		if c.Value != want[c.Name] {
			t.Errorf("%s = %d, the stubs count %d", c.Name, c.Value, want[c.Name])
		}
	}
}

// deadCaller always fails with a dead-connection fault.
type deadCaller struct{ calls int }

func (d *deadCaller) Call(payload []byte) ([]byte, error) {
	d.calls++
	return nil, vnet.ErrConnClosed
}

func (d *deadCaller) Close() error { return nil }

// TestRedialRespectsDeadline is the regression test for the
// retry/redial interaction: a redial that hands back a caller which
// immediately faults again must still respect RetryPolicy.Deadline —
// the reconnect path must not reset the attempt budget — and the
// Retries/Reconnects counters must stay coherent (one reconnect per
// dead-connection retry, never more retries than backoffs slept).
func TestRedialRespectsDeadline(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	var redials int
	r := NewRemote("stub", h, &deadCaller{}, 1).
		SetRetry(&RetryPolicy{
			MaxAttempts: 1000, // deadline, not attempts, must stop the loop
			BaseBackoff: 200 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
			Deadline:    3 * time.Millisecond,
		}).
		SetRedial(func(stale vnet.Caller) (vnet.Caller, uint32, error) {
			redials++
			return &deadCaller{}, 1, nil
		})
	start := hrtime.Now()
	_, err := op(r, &Ctx{}, Request{Kind: OpRead})
	elapsed := time.Duration(hrtime.Since(start))
	if !errors.Is(err, vnet.ErrConnClosed) {
		t.Fatalf("err = %v, want ErrConnClosed", err)
	}
	// The last attempt starts within one capped backoff of the deadline.
	if elapsed < 3*time.Millisecond || elapsed >= 4*time.Millisecond {
		t.Fatalf("deadline ignored: Op ran %v, want [3ms, 4ms)", elapsed)
	}
	if r.retries.Load() == 0 {
		t.Fatal("no retries before the deadline")
	}
	if r.retries.Load() >= 999 {
		t.Fatalf("retries = %d: the deadline did not bound the loop", r.retries.Load())
	}
	if got, want := r.reconnect.Load(), uint64(redials); got != want {
		t.Fatalf("Reconnects = %d, redial func ran %d times", got, want)
	}
	// Every retry of a dead connection redials: the counters move in
	// lockstep.
	if r.reconnect.Load() != r.retries.Load() {
		t.Fatalf("Reconnects = %d, Retries = %d: counters incoherent", r.reconnect.Load(), r.retries.Load())
	}
}

func TestServiceHandlerEncodesAppErrors(t *testing.T) {
	_, c1, _ := testNet(t)
	server := c1.Hosts()[0]
	failing := NewFunc("boom", server, func(ctx *Ctx, req Request) (Reply, error) {
		return Reply{}, errors.New("deliberate")
	})
	svc := NewService()
	target := svc.Register(failing)
	h := svc.Handler()

	// A wrapper error comes back as a frame, not a handler error.
	frame, err := h(encodeRequest(target, &Ctx{}, Request{Kind: OpRead}))
	if err != nil {
		t.Fatalf("handler returned transport-level error: %v", err)
	}
	if _, err := decodeReply(frame); !IsRemote(err) {
		t.Fatalf("decoded err = %v, want RemoteError", err)
	}

	// Unknown target and malformed request frames too.
	frame, err = h(encodeRequest(999, &Ctx{}, Request{Kind: OpRead}))
	if err != nil {
		t.Fatalf("unknown target: handler err %v", err)
	}
	if _, err := decodeReply(frame); !IsRemote(err) {
		t.Fatalf("unknown target decoded err = %v", err)
	}
	frame, err = h([]byte{1, 2, 3})
	if err != nil {
		t.Fatalf("malformed request: handler err %v", err)
	}
	if _, err := decodeReply(frame); !IsRemote(err) {
		t.Fatalf("malformed request decoded err = %v", err)
	}
}

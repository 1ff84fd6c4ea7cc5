package client

import (
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"gosrb/internal/resilience"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

func fastPolicy() resilience.Policy {
	return resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
}

// TestClientRetriesIdempotentOnOffline: a read hitting a transiently
// offline resource is retried and succeeds once the resource is back.
func TestClientRetriesIdempotentOnOffline(t *testing.T) {
	var calls atomic.Int64
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		if calls.Add(1) <= 2 {
			return c.WriteJSON(wire.MsgResponse, errResp(req, types.E(req.Op, "/x", types.ErrOffline)))
		}
		resp := okResp(req, wire.SizeReply{Size: 2}, true)
		if err := c.WriteJSON(wire.MsgResponse, resp); err != nil {
			return err
		}
		c.WriteMsg(wire.MsgData, []byte("ok"))
		return c.WriteMsg(wire.MsgDataEnd, nil)
	})
	cl, err := Dial(addr, "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(fastPolicy())
	cl.sleep = func(time.Duration) {}

	data, err := cl.Get("/x")
	if err != nil || string(data) != "ok" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	if got := cl.Retries(); got != 2 {
		t.Errorf("Retries() = %d, want 2", got)
	}
}

// TestClientNeverRetriesMutating: a failing ingest reaches the server
// exactly once, whatever the retry policy says.
func TestClientNeverRetriesMutating(t *testing.T) {
	var calls atomic.Int64
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		calls.Add(1)
		// Drain the ingest data stream to keep the protocol healthy.
		if _, err := c.RecvData(discard{}); err != nil {
			return err
		}
		return c.WriteJSON(wire.MsgResponse, errResp(req, types.E(req.Op, "/x", types.ErrOffline)))
	})
	cl, err := Dial(addr, "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(fastPolicy())
	cl.sleep = func(time.Duration) {}

	if _, err := cl.Put("/x", []byte("data"), PutOpts{}); !errors.Is(err, types.ErrOffline) {
		t.Fatalf("Put = %v, want offline", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d ingest attempts, want exactly 1", got)
	}
	if got := cl.Retries(); got != 0 {
		t.Errorf("Retries() = %d, want 0", got)
	}
}

// TestClientReconnectsAfterTransportError: the server drops the conn
// mid-exchange; the client re-dials, re-authenticates and retries.
func TestClientReconnectsAfterTransportError(t *testing.T) {
	var calls atomic.Int64
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		if calls.Add(1) == 1 {
			return errors.New("drop the connection mid-request")
		}
		resp := okResp(req, wire.SizeReply{Size: 2}, true)
		if err := c.WriteJSON(wire.MsgResponse, resp); err != nil {
			return err
		}
		c.WriteMsg(wire.MsgData, []byte("ok"))
		return c.WriteMsg(wire.MsgDataEnd, nil)
	})
	cl, err := Dial(addr, "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(fastPolicy())
	cl.sleep = func(time.Duration) {}

	data, err := cl.Get("/x")
	if err != nil || string(data) != "ok" {
		t.Fatalf("Get after conn drop = %q, %v", data, err)
	}
	if got := cl.Retries(); got != 1 {
		t.Errorf("Retries() = %d, want 1", got)
	}
}

// TestClientTimeoutOnWire: a configured call timeout rides in
// TimeoutMillis so the whole federation chain inherits the budget.
func TestClientTimeoutOnWire(t *testing.T) {
	var sawBudget atomic.Int64
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		sawBudget.Store(req.TimeoutMillis)
		return c.WriteJSON(wire.MsgResponse, wire.Response{ID: req.ID, OK: true})
	})
	cl, err := Dial(addr, "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTimeout(5 * time.Second)
	if _, err := cl.List("/"); err != nil {
		t.Fatal(err)
	}
	if got := sawBudget.Load(); got <= 0 || got > 5000 {
		t.Errorf("TimeoutMillis on wire = %d, want (0, 5000]", got)
	}
}

// TestClientTimeoutExpires: a stalled server cannot hang the client
// past its deadline — the conn deadline fires and the call fails fast.
func TestClientTimeoutExpires(t *testing.T) {
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		time.Sleep(2 * time.Second) // stall well past the client budget
		return c.WriteJSON(wire.MsgResponse, wire.Response{ID: req.ID, OK: true})
	})
	cl, err := Dial(addr, "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTimeout(80 * time.Millisecond)
	cl.sleep = func(time.Duration) {}

	start := time.Now()
	_, err = cl.List("/")
	if err == nil {
		t.Fatal("call must fail once the budget is spent")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("call took %v, deadline did not bound it", elapsed)
	}
}

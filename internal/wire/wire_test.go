package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/quick"

	"gosrb/internal/types"
)

// pipeConn is an in-memory bidirectional transport for tests.
func pipeConn() (*Conn, *Conn) {
	a2b := &blockingBuffer{ch: make(chan []byte, 64)}
	b2a := &blockingBuffer{ch: make(chan []byte, 64)}
	a := NewConn(&duplex{r: b2a, w: a2b})
	b := NewConn(&duplex{r: a2b, w: b2a})
	return a, b
}

type duplex struct {
	r io.Reader
	w io.Writer
}

func (d *duplex) Read(p []byte) (int, error)  { return d.r.Read(p) }
func (d *duplex) Write(p []byte) (int, error) { return d.w.Write(p) }

// blockingBuffer delivers writes to readers through a channel.
type blockingBuffer struct {
	ch  chan []byte
	cur []byte
}

func (b *blockingBuffer) Write(p []byte) (int, error) {
	cp := append([]byte(nil), p...)
	b.ch <- cp
	return len(p), nil
}

func (b *blockingBuffer) Read(p []byte) (int, error) {
	if len(b.cur) == 0 {
		chunk, ok := <-b.ch
		if !ok {
			return 0, io.EOF
		}
		b.cur = chunk
	}
	n := copy(p, b.cur)
	b.cur = b.cur[n:]
	return n, nil
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := pipeConn()
	go func() {
		a.WriteMsg(MsgRequest, []byte("payload"))
	}()
	typ, payload, err := b.ReadMsg()
	if err != nil || typ != MsgRequest || string(payload) != "payload" {
		t.Errorf("frame = %d %q %v", typ, payload, err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	a, b := pipeConn()
	go a.WriteJSON(MsgChallenge, Challenge{Server: "srb1", Nonce: "abc"})
	var ch Challenge
	if err := b.ReadJSON(MsgChallenge, &ch); err != nil || ch.Server != "srb1" || ch.Nonce != "abc" {
		t.Errorf("challenge = %+v, %v", ch, err)
	}
	// Wrong expected type errors.
	go a.WriteJSON(MsgAuth, Auth{User: "u"})
	if err := b.ReadJSON(MsgChallenge, &ch); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("type mismatch = %v", err)
	}
}

func TestDataStream(t *testing.T) {
	a, b := pipeConn()
	payload := make([]byte, DataChunk*3+100) // multiple chunks
	for i := range payload {
		payload[i] = byte(i)
	}
	go func() {
		if err := a.SendData(bytes.NewReader(payload)); err != nil {
			t.Error(err)
		}
	}()
	var buf bytes.Buffer
	n, err := b.RecvData(&buf)
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("RecvData = %d, %v", n, err)
	}
	if !bytes.Equal(buf.Bytes(), payload) {
		t.Error("data corrupted")
	}
}

func TestEmptyDataStream(t *testing.T) {
	a, b := pipeConn()
	go a.SendData(bytes.NewReader(nil))
	var buf bytes.Buffer
	n, err := b.RecvData(&buf)
	if err != nil || n != 0 {
		t.Errorf("empty stream = %d, %v", n, err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var sink bytes.Buffer
	c := NewConn(&sink)
	if err := c.WriteMsg(MsgData, make([]byte, MaxFrame+1)); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("oversize write = %v", err)
	}
	// A forged oversize header is rejected on read.
	var buf bytes.Buffer
	buf.Write([]byte{byte(MsgData), 0xFF, 0xFF, 0xFF, 0xFF})
	r := NewConn(&buf)
	if _, _, err := r.ReadMsg(); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("oversize read = %v", err)
	}
}

func TestErrKindRoundTrip(t *testing.T) {
	for _, sentinel := range []error{
		types.ErrNotFound, types.ErrExists, types.ErrPermission,
		types.ErrLocked, types.ErrOffline, types.ErrInvalid,
		types.ErrNotEmpty, types.ErrUnsupported, types.ErrAuth,
		types.ErrMandatoryMeta,
	} {
		wrapped := types.E("op", "/p", sentinel)
		resp := ErrResponse(wrapped)
		back := resp.Err()
		if !errors.Is(back, sentinel) {
			t.Errorf("sentinel %v lost through the wire: %v", sentinel, back)
		}
	}
	// Unclassified errors still carry their message.
	resp := ErrResponse(errors.New("weird failure"))
	if resp.Err() == nil || resp.Err().Error() != "weird failure" {
		t.Errorf("unclassified = %v", resp.Err())
	}
	// Success responses carry no error.
	ok, _ := OkResponse(struct{}{}, false)
	if ok.Err() != nil {
		t.Error("ok response should have nil error")
	}
}

// Property: any payload under the frame limit round-trips intact.
func TestFrameProperty(t *testing.T) {
	f := func(payload []byte, kind uint8) bool {
		a, b := pipeConn()
		typ := MsgType(kind%8 + 1)
		go a.WriteMsg(typ, payload)
		gt, gp, err := b.ReadMsg()
		if err != nil || gt != typ {
			return false
		}
		return bytes.Equal(gp, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDataStreamReadsIntoCallerBuffer: Read fills the caller's buffer
// straight from the frames, never past a frame boundary, ends with
// io.EOF at DataEnd, and More peeks the end without consuming payload.
func TestDataStreamReadsIntoCallerBuffer(t *testing.T) {
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.WriteMsg(MsgData, []byte("abc"))
	w.WriteMsg(MsgData, nil) // empty frames are skipped
	w.WriteMsg(MsgData, []byte("defgh"))
	w.WriteMsg(MsgDataEnd, nil)
	w.WriteMsg(MsgRequest, []byte("next"))

	ds := NewConn(&buf).DataStream()
	p := make([]byte, 4)
	if n, err := ds.Read(p); n != 3 || err != nil || string(p[:n]) != "abc" {
		t.Fatalf("first read = %d %q %v", n, p[:n], err)
	}
	if more, err := ds.More(); !more || err != nil {
		t.Fatalf("More before the second frame = %v, %v", more, err)
	}
	if n, err := ds.Read(p); n != 4 || err != nil || string(p[:n]) != "defg" {
		t.Fatalf("second read = %d %q %v", n, p[:n], err)
	}
	if n, err := ds.Read(p); n != 1 || err != nil || string(p[:n]) != "h" {
		t.Fatalf("third read = %d %q %v", n, p[:n], err)
	}
	if more, err := ds.More(); more || err != nil {
		t.Fatalf("More at DataEnd = %v, %v", more, err)
	}
	if n, err := ds.Read(p); n != 0 || err != io.EOF {
		t.Fatalf("read at end = %d, %v", n, err)
	}
	// The stream stopped exactly at DataEnd: the next frame is intact.
	if typ, payload, err := NewConn(&buf).ReadMsg(); err != nil || typ != MsgRequest || string(payload) != "next" {
		t.Fatalf("frame after the stream = %d %q %v", typ, payload, err)
	}
}

// TestDataStreamOversizeHeaderNoAlloc: a data-frame header declaring
// more than MaxFrame fails with ErrInvalid, and neither it nor a
// truncated frame declaring 16 MiB allocates anything near the
// declared length — payload goes straight into the caller's buffer.
func TestDataStreamOversizeHeaderNoAlloc(t *testing.T) {
	p := make([]byte, 16)
	for _, hdr := range [][]byte{
		{byte(MsgData), 0xFF, 0xFF, 0xFF, 0xFF}, // 4 GiB: over MaxFrame
		{byte(MsgData), 0x00, 0xff, 0xff, 0xff}, // 16 MiB - 1, then nothing
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := NewConn(bytes.NewBuffer(hdr)).DataStream().Read(p)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("header %x: read succeeded", hdr)
		}
		if hdr[1] == 0xFF && !errors.Is(err, types.ErrInvalid) {
			t.Errorf("oversize data frame = %v, want ErrInvalid", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("header %x allocated %d bytes", hdr, grew)
		}
	}
}

// TestDataStreamRejectsForeignFrame: only Data and DataEnd frames may
// sit inside a stream; anything else is a protocol error.
func TestDataStreamRejectsForeignFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.WriteMsg(MsgData, []byte("ok"))
	w.WriteMsg(MsgResponse, []byte("{}"))
	var sink bytes.Buffer
	n, err := NewConn(&buf).RecvData(&sink)
	if !errors.Is(err, types.ErrInvalid) {
		t.Fatalf("response frame inside a stream = %v, want ErrInvalid", err)
	}
	if n != 2 || sink.String() != "ok" {
		t.Errorf("delivered %d bytes %q before the bad frame", n, sink.String())
	}
}

// TestDataStreamCutMidFrame: a stream that stops inside a frame, or
// before its DataEnd, fails with io.ErrUnexpectedEOF rather than
// looking like a complete, shorter stream.
func TestDataStreamCutMidFrame(t *testing.T) {
	var full bytes.Buffer
	w := NewConn(&full)
	w.WriteMsg(MsgData, []byte("0123456789"))
	w.WriteMsg(MsgDataEnd, nil)
	frames := full.Bytes()
	for _, cut := range []int{3, 5 + 4, 5 + 10, 5 + 10 + 2} {
		_, err := NewConn(bytes.NewBuffer(frames[:cut:cut])).RecvData(io.Discard)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestSendDataPooledChunks: a multi-chunk send allocates no per-frame
// payload buffers — the chunk comes from the pool.
func TestSendDataPooledChunks(t *testing.T) {
	payload := make([]byte, 8*DataChunk)
	r := bytes.NewReader(payload)
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{nil, io.Discard})
	c.SendData(r) // warm the pool
	allocs := testing.AllocsPerRun(10, func() {
		r.Reset(payload)
		if err := c.SendData(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Errorf("an 8-chunk send made %v allocations", allocs)
	}
}

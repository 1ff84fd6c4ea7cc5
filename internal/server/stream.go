package server

import (
	"bytes"
	"io"
	"sync"

	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// The bulk data path streams between the wire and storage. Both
// directions read one wire.DataChunk ahead: data that ends within that
// chunk is handled whole, exactly as before streaming existed; only
// longer data goes live. The rule depends on the data's length alone.

// inStream is the live inbound stream of a StreamsIn request longer
// than one chunk: the read-ahead chunk, then the rest of the Data
// frames, read on the handler's goroutine. The connection's reader
// loop waits for release before it drains what is left and reads the
// next request.
type inStream struct {
	head *[]byte // pooled read-ahead chunk, consumed from off
	off  int
	ds   *wire.DataStream
	n    int64 // bytes handed to the handler
	done chan struct{}
	once sync.Once
}

// Read hands out the read-ahead chunk, then the live stream.
func (s *inStream) Read(p []byte) (n int, err error) {
	if s.off < len(*s.head) {
		n = copy(p, (*s.head)[s.off:])
		s.off += n
	} else {
		n, err = s.ds.Read(p)
	}
	s.n += int64(n)
	return n, err
}

// WriteTo copies the rest of the stream to w one whole frame per
// Write; io.Copy would otherwise pick a 32 KiB buffer.
func (s *inStream) WriteTo(w io.Writer) (int64, error) {
	var total int64
	if s.off < len(*s.head) {
		m, err := w.Write((*s.head)[s.off:])
		s.off += m
		total += int64(m)
		if err != nil {
			s.n += total
			return total, err
		}
	}
	rest, err := s.ds.WriteTo(w)
	total += rest
	s.n += total
	return total, err
}

// release ends the handler's use of the stream and wakes the reader
// loop. It is safe to call more than once.
func (s *inStream) release() {
	s.once.Do(func() {
		wire.PutChunk(s.head)
		s.head = nil
		close(s.done)
	})
}

// finish waits for release, then discards what the handler left
// unread so the next frame is again a request. A stream whose framing
// failed ends the connection.
func (s *inStream) finish() error {
	<-s.done
	_, err := s.ds.WriteTo(io.Discard)
	return err
}

// recvIn reads the request's inbound stream one chunk ahead. A stream
// that ends within the chunk becomes c.pre and the reader loop moves
// on; a longer one is handed to the handler live as c.in.
func (c *call) recvIn(wc *wire.Conn) error {
	ds := wc.DataStream()
	head := wire.GetChunk()
	n := 0
	for n < len(*head) {
		m, err := ds.Read((*head)[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			wire.PutChunk(head)
			return err
		}
	}
	more, err := ds.More()
	if err != nil {
		wire.PutChunk(head)
		return err
	}
	if more {
		c.in = &inStream{head: head, ds: ds, done: make(chan struct{})}
		return nil
	}
	c.pre = bytes.Clone((*head)[:n])
	wire.PutChunk(head)
	return nil
}

// body returns the request's inbound stream as a reader.
func (c *call) body() io.Reader {
	if c.in != nil {
		return c.in
	}
	return bytes.NewReader(c.pre)
}

// bodyBytes returns the whole inbound stream. The call sites that
// still buffer (reingest, checkin, ingestreplica, bulkput, federated
// relays) read a live stream to its end here.
func (c *call) bodyBytes() ([]byte, error) {
	if c.in == nil {
		return c.pre, nil
	}
	return io.ReadAll(c.in)
}

// releaseIn ends the handler's use of a live inbound stream and charges
// the bytes it read to the request.
func (c *call) releaseIn() {
	if c.in != nil {
		c.in.release()
		c.bytesIn += c.in.n
		c.in.n = 0
	}
}

// streamed replies with size bytes read from r, closing cl when done. A
// reply that fits in one chunk is read whole here, so a read error is
// still an error reply. A longer one reads its first chunk ahead, then
// streams the rest from r after the response frame; a read failure
// after that closes the connection.
func streamed(op, path string, r io.Reader, cl io.Closer, size int64) (any, error) {
	if size <= wire.DataChunk {
		defer cl.Close()
		buf := make([]byte, size)
		n, err := io.ReadFull(r, buf)
		if err != nil && n == 0 {
			return nil, types.E(op, path, err)
		}
		return sized(buf[:n], nil)
	}
	head := wire.GetChunk()
	if _, err := io.ReadFull(r, *head); err != nil {
		wire.PutChunk(head)
		cl.Close()
		return nil, types.E(op, path, err)
	}
	rest := &exactReader{r: r, left: size - wire.DataChunk}
	return dataReply{body: wire.SizeReply{Size: size}, head: head, src: rest, cl: cl, size: size}, nil
}

// exactReader yields exactly left bytes of r: a source that ends short
// fails with io.ErrUnexpectedEOF instead of ending the stream early.
type exactReader struct {
	r    io.Reader
	left int64
}

func (e *exactReader) Read(p []byte) (int, error) {
	if e.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > e.left {
		p = p[:e.left]
	}
	n, err := e.r.Read(p)
	e.left -= int64(n)
	if err == io.EOF {
		if e.left > 0 {
			return n, io.ErrUnexpectedEOF
		}
		err = nil
	}
	return n, err
}

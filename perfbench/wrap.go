package main

import (
	"net"

	"hear"
	"hear/internal/core"
	"hear/internal/keys"
)

// The wrappers below record spans around the public injection points the
// library accepts from its caller. Each forwards every call unchanged;
// nothing inside the program is modified.

// tracedScheme wraps the core.Scheme handed to Context.AllreduceRaw. The
// engine calls EncryptAt/DecryptAt once per shard and Reduce once per
// shard or mpi fold, so each span is one shard or fold call.
type tracedScheme struct {
	core.Scheme
	t *rankTracer
}

func (s *tracedScheme) begin(name string) int32 {
	return s.t.rec.begin(name, s.t.cur.Load(), s.t.op.Load(), s.t.part)
}

func (s *tracedScheme) Encrypt(st *keys.RankState, plain, cipher []byte, n int) error {
	return s.EncryptAt(st, plain, cipher, n, 0)
}

func (s *tracedScheme) EncryptAt(st *keys.RankState, plain, cipher []byte, n, off int) error {
	i := s.begin(spanEncrypt)
	err := s.Scheme.EncryptAt(st, plain, cipher, n, off)
	s.t.rec.end(i)
	return err
}

func (s *tracedScheme) Decrypt(st *keys.RankState, cipher, plain []byte, n int) error {
	return s.DecryptAt(st, cipher, plain, n, 0)
}

func (s *tracedScheme) DecryptAt(st *keys.RankState, cipher, plain []byte, n, off int) error {
	i := s.begin(spanDecrypt)
	err := s.Scheme.DecryptAt(st, cipher, plain, n, off)
	s.t.rec.end(i)
	return err
}

func (s *tracedScheme) Reduce(dst, src []byte, n int) {
	i := s.begin(spanReduce)
	s.Scheme.Reduce(dst, src, n)
	s.t.rec.end(i)
}

// tracedSealer wraps the aggsvc.Sealer handed to aggsvc.NewClient. It
// embeds the concrete *hear.GatewaySealer, so every optional interface
// the client negotiates on (SchemeIDer, DegradedSealer, NoisePrefetcher)
// is promoted unchanged and the HELLO the gateway sees is identical.
type tracedSealer struct {
	*hear.GatewaySealer
	t *rankTracer
}

func (s *tracedSealer) span(name string) int32 {
	return s.t.rec.begin(name, s.t.cur.Load(), s.t.op.Load(), s.t.part)
}

func (s *tracedSealer) Seal(vals []int64, epoch uint64) (cipher, tags []byte, err error) {
	i := s.span(spanSeal)
	cipher, tags, err = s.GatewaySealer.Seal(vals, epoch)
	s.t.rec.end(i)
	return cipher, tags, err
}

func (s *tracedSealer) Verify(reducedCipher, reducedTags []byte) error {
	i := s.span(spanVerify)
	err := s.GatewaySealer.Verify(reducedCipher, reducedTags)
	s.t.rec.end(i)
	return err
}

func (s *tracedSealer) Open(reduced []byte, out []int64) error {
	i := s.span(spanOpen)
	err := s.GatewaySealer.Open(reduced, out)
	s.t.rec.end(i)
	return err
}

// tracedConn wraps a gateway client's net.Conn. Read spans cover the
// client waiting for JOIN and RESULT frames; Write spans cover sending
// HELLO and SUBMIT. Wrapping hides the TCP connection's vectored-write
// path, so a traced client writes each frame buffer separately — the
// bytes on the wire are unchanged, which the traced run asserts.
type tracedConn struct {
	net.Conn
	t *rankTracer
}

func (c *tracedConn) Read(b []byte) (int, error) {
	i := c.t.rec.begin(spanClientRead, c.t.cur.Load(), c.t.op.Load(), c.t.part)
	n, err := c.Conn.Read(b)
	c.t.rec.end(i)
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	i := c.t.rec.begin(spanClientWrite, c.t.cur.Load(), c.t.op.Load(), c.t.part)
	n, err := c.Conn.Write(b)
	c.t.rec.end(i)
	return n, err
}

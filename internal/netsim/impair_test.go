package netsim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"
)

// dialPair establishes a stream between two fresh hosts and returns
// both ends.
func dialPair(t *testing.T, n *Network, aIP, bIP string) (*Conn, *Conn) {
	t.Helper()
	a := n.MustHost(mustAddr(aIP))
	b := n.MustHost(mustAddr(bIP))
	l, err := b.Listen(7000)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c.(*Conn)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ca, err := a.Dial(ctx, mustAP(bIP+":7000"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case cb := <-accepted:
		return ca, cb
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
		return nil, nil
	}
}

func TestHostCloseKillsEverything(t *testing.T) {
	n := New(Config{})
	ca, cb := dialPair(t, n, "10.0.0.1", "10.0.0.2")
	a := n.Host(mustAddr("10.0.0.1"))

	pc, err := a.ListenPacket(9000)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if !a.Closed() {
		t.Fatal("host should report closed")
	}

	// Established streams die on both sides.
	if _, err := ca.Write([]byte("x")); err == nil {
		t.Fatal("write on crashed host should fail")
	}
	if _, err := cb.Read(make([]byte, 4)); !errors.Is(err, io.EOF) {
		t.Fatalf("remote read = %v, want EOF", err)
	}
	// Sockets die.
	if _, _, err := pc.ReadFromAddrPort(make([]byte, 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("packet read = %v, want ErrClosed", err)
	}
	// New activity on the crashed host fails.
	if _, err := a.Listen(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Listen = %v, want ErrClosed", err)
	}
	if _, err := a.ListenPacket(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ListenPacket = %v, want ErrClosed", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := a.Dial(ctx, mustAP("10.0.0.2:7000")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Dial = %v, want ErrClosed", err)
	}
	// Dialing the crashed host is refused (its listeners are gone).
	c := n.MustHost(mustAddr("10.0.0.3"))
	if _, err := c.Dial(ctx, mustAP("10.0.0.1:7000")); err == nil {
		t.Fatal("dialing a crashed host should fail")
	}
	// Close is idempotent.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionSeversAndBlocks: isolating a host is the partition
// primitive. Its established streams are severed, dials fail in both
// directions, its datagrams vanish like a routing blackhole's, and
// Rejoin restores connectivity.
func TestPartitionSeversAndBlocks(t *testing.T) {
	n := New(Config{})
	_, cb := dialPair(t, n, "10.0.0.1", "10.0.0.2")
	a := n.Host(mustAddr("10.0.0.1"))
	b := n.Host(mustAddr("10.0.0.2"))

	n.Isolate(a.Addr())

	// Established stream was severed.
	if _, err := cb.Read(make([]byte, 4)); !errors.Is(err, io.EOF) {
		t.Fatalf("read across partition = %v, want EOF", err)
	}
	// New dials fail, whichever side dials.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := a.Dial(ctx, mustAP("10.0.0.2:7000")); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dial out of partition = %v, want ErrUnreachable", err)
	}
	if _, err := b.Dial(ctx, mustAP("10.0.0.1:7000")); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dial into partition = %v, want ErrUnreachable", err)
	}
	// UDP is silently dropped.
	pa, _ := a.ListenPacket(9000)
	pb, _ := b.ListenPacket(9000)
	if _, err := pa.WriteToAddrPort([]byte("x"), mustAP("10.0.0.2:9000")); err != nil {
		t.Fatal(err)
	}
	pb.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := pb.ReadFromAddrPort(make([]byte, 4)); err == nil {
		t.Fatal("datagram should not cross a partition")
	}

	// Rejoin restores connectivity.
	n.Rejoin(a.Addr())
	l, err := b.Listen(7001)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if c, err := l.Accept(); err == nil {
			c.Close()
		}
	}()
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if _, err := a.Dial(hctx, mustAP("10.0.0.2:7001")); err != nil {
		t.Fatalf("dial after rejoin: %v", err)
	}
}

func TestIsolateCutsOneHostOnly(t *testing.T) {
	n := New(Config{})
	a := n.MustHost(mustAddr("10.0.0.1"))
	b := n.MustHost(mustAddr("10.0.0.2"))
	c := n.MustHost(mustAddr("10.0.0.3"))
	lb, err := b.Listen(7000)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := lb.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	defer lb.Close()

	n.Isolate(a.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := a.Dial(ctx, mustAP("10.0.0.2:7000")); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("isolated dial = %v, want ErrUnreachable", err)
	}
	// Third parties are unaffected.
	if _, err := c.Dial(ctx, mustAP("10.0.0.2:7000")); err != nil {
		t.Fatalf("bystander dial: %v", err)
	}
	n.Rejoin(a.Addr())
	if _, err := a.Dial(ctx, mustAP("10.0.0.2:7000")); err != nil {
		t.Fatalf("dial after rejoin: %v", err)
	}
}

func TestCorruptStreamsFlipsBytes(t *testing.T) {
	n := New(Config{Seed: 3})
	ca, cb := dialPair(t, n, "10.0.0.1", "10.0.0.2")
	n.CorruptStreams(mustAddr("10.0.0.1"), 1, false)

	payload := bytes.Repeat([]byte("segment-data-"), 64)
	go ca.Write(payload)
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(cb, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, payload) {
		t.Fatal("corruption rule did not mutate the chunk")
	}
	if len(got) != len(payload) {
		t.Fatalf("corruption changed length: %d != %d", len(got), len(payload))
	}

	// ClearCorrupt restores clean delivery.
	n.ClearCorrupt(mustAddr("10.0.0.1"))
	go ca.Write(payload)
	if _, err := io.ReadFull(cb, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("chunk corrupted after ClearCorrupt")
	}
}

func TestCorruptStreamsTruncates(t *testing.T) {
	n := New(Config{Seed: 5})
	ca, cb := dialPair(t, n, "10.0.0.1", "10.0.0.2")
	n.CorruptStreams(mustAddr("10.0.0.1"), 1, true)

	payload := bytes.Repeat([]byte("x"), 4096)
	done := make(chan int, 1)
	go func() {
		n, _ := ca.Write(payload)
		done <- n
	}()
	buf := make([]byte, 8192)
	cb.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, err := cb.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Fatal("truncation must keep at least one byte")
	}
	// The sender still believes it wrote everything (the network ate the
	// tail), matching how a crashed receiver looks to a TCP sender.
	if sent := <-done; sent != len(payload) {
		t.Fatalf("sender saw %d, want %d", sent, len(payload))
	}
	// With the seeded RNG and prob 1 the first chunk is truncated; it
	// must be strictly shorter than the payload or this test proves
	// nothing (1+Intn(n) can return n, but not for this seed).
	if got >= len(payload) {
		t.Fatalf("chunk not truncated: got %d bytes", got)
	}
}

func TestImpairmentValidation(t *testing.T) {
	n := New(Config{})
	for _, fn := range []func(){
		func() { n.CorruptStreams(mustAddr("10.0.0.1"), 2, false) },
		func() { n.CorruptStreams(mustAddr("10.0.0.1"), -1, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid impairment parameter")
				}
			}()
			fn()
		}()
	}
}

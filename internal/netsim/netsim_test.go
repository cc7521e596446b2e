package netsim

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/netip"
	"os"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func mustAP(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

func TestHostRegistration(t *testing.T) {
	n := New(Config{})
	h, err := n.NewHost(mustAddr("1.2.3.4"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Addr() != mustAddr("1.2.3.4") {
		t.Fatalf("Addr = %v", h.Addr())
	}
	if _, err := n.NewHost(mustAddr("1.2.3.4")); err == nil {
		t.Fatal("duplicate host registration should fail")
	}
	if n.Host(mustAddr("1.2.3.4")) != h {
		t.Fatal("Host lookup failed")
	}
	if n.Host(mustAddr("9.9.9.9")) != nil {
		t.Fatal("unknown host should be nil")
	}
}

func TestStreamRoundTrip(t *testing.T) {
	n := New(Config{})
	a := n.MustHost(mustAddr("10.0.0.1"))
	b := n.MustHost(mustAddr("10.0.0.2"))

	l, err := b.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		nn, err := c.Read(buf)
		if err != nil {
			done <- err
			return
		}
		_, err = c.Write(append([]byte("echo:"), buf[:nn]...))
		done <- err
	}()

	conn, err := a.Dial(context.Background(), mustAP("10.0.0.2:8080"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	nn, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(buf[:nn]); got != "echo:hello" {
		t.Fatalf("got %q", got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDialRefusedAndUnreachable(t *testing.T) {
	n := New(Config{})
	a := n.MustHost(mustAddr("10.0.0.1"))
	n.MustHost(mustAddr("10.0.0.2"))

	if _, err := a.Dial(context.Background(), mustAP("10.0.0.2:9999")); err == nil {
		t.Fatal("expected refused")
	}
	if _, err := a.Dial(context.Background(), mustAP("10.9.9.9:80")); err == nil {
		t.Fatal("expected unreachable")
	}
}

func TestListenerPortConflict(t *testing.T) {
	n := New(Config{})
	a := n.MustHost(mustAddr("10.0.0.1"))
	if _, err := a.Listen(80); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Listen(80); err == nil {
		t.Fatal("expected port-in-use")
	}
}

func TestStreamEOFOnClose(t *testing.T) {
	n := New(Config{})
	a := n.MustHost(mustAddr("10.0.0.1"))
	b := n.MustHost(mustAddr("10.0.0.2"))
	l, _ := b.Listen(80)
	go func() {
		c, _ := l.Accept()
		c.Write([]byte("bye"))
		c.Close()
	}()
	conn, err := a.Dial(context.Background(), mustAP("10.0.0.2:80"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(data) != "bye" {
		t.Fatalf("got %q", data)
	}
}

func TestReadDeadline(t *testing.T) {
	n := New(Config{})
	a := n.MustHost(mustAddr("10.0.0.1"))
	b := n.MustHost(mustAddr("10.0.0.2"))
	l, _ := b.Listen(80)
	go func() {
		c, _ := l.Accept()
		defer c.Close()
		time.Sleep(500 * time.Millisecond)
	}()
	conn, err := a.Dial(context.Background(), mustAP("10.0.0.2:80"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 8)
	if _, err := conn.Read(buf); err != os.ErrDeadlineExceeded {
		t.Fatalf("Read err = %v, want deadline exceeded", err)
	}
	// Clearing the deadline makes reads block again (until close/EOF).
	conn.SetReadDeadline(time.Time{})
}

func TestPacketRoundTrip(t *testing.T) {
	n := New(Config{})
	a := n.MustHost(mustAddr("10.0.0.1"))
	b := n.MustHost(mustAddr("10.0.0.2"))
	pa, err := a.ListenPacket(5000)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.ListenPacket(6000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pa.WriteToAddrPort([]byte("ping"), mustAP("10.0.0.2:6000")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	pb.SetReadDeadline(time.Now().Add(time.Second))
	nn, from, err := pb.ReadFromAddrPort(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:nn]) != "ping" {
		t.Fatalf("payload %q", buf[:nn])
	}
	if from != mustAP("10.0.0.1:5000") {
		t.Fatalf("from = %v", from)
	}
	// Reply.
	if _, err := pb.WriteToAddrPort([]byte("pong"), from); err != nil {
		t.Fatal(err)
	}
	pa.SetReadDeadline(time.Now().Add(time.Second))
	nn, from2, err := pa.ReadFromAddrPort(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:nn]) != "pong" || from2 != mustAP("10.0.0.2:6000") {
		t.Fatalf("reply %q from %v", buf[:nn], from2)
	}
}

func TestPacketToNowhereIsDropped(t *testing.T) {
	n := New(Config{})
	a := n.MustHost(mustAddr("10.0.0.1"))
	pa, _ := a.ListenPacket(0)
	if _, err := pa.WriteToAddrPort([]byte("x"), mustAP("10.99.99.99:1")); err != nil {
		t.Fatalf("UDP to unreachable must not error: %v", err)
	}
}

func TestNATFullConeMappingAndReply(t *testing.T) {
	n := New(Config{})
	server := n.MustHost(mustAddr("8.8.8.8"))
	nat := n.MustNAT(mustAddr("5.5.5.5"), NATFullCone)
	inside := nat.MustHost(mustAddr("192.168.1.10"))

	ps, _ := server.ListenPacket(3478)
	pi, _ := inside.ListenPacket(4000)

	if _, err := pi.WriteToAddrPort([]byte("hi"), mustAP("8.8.8.8:3478")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	ps.SetReadDeadline(time.Now().Add(time.Second))
	_, from, err := ps.ReadFromAddrPort(buf)
	if err != nil {
		t.Fatal(err)
	}
	if from.Addr() != mustAddr("5.5.5.5") {
		t.Fatalf("server saw %v, want NAT external 5.5.5.5", from)
	}
	// Reply through the mapping reaches the inside host.
	if _, err := ps.WriteToAddrPort([]byte("yo"), from); err != nil {
		t.Fatal(err)
	}
	pi.SetReadDeadline(time.Now().Add(time.Second))
	nn, _, err := pi.ReadFromAddrPort(buf)
	if err != nil || string(buf[:nn]) != "yo" {
		t.Fatalf("inside read: %v %q", err, buf[:nn])
	}
	// Full cone: a third party can use the same mapping.
	third := n.MustHost(mustAddr("9.9.9.9"))
	pt, _ := third.ListenPacket(0)
	if _, err := pt.WriteToAddrPort([]byte("3rd"), from); err != nil {
		t.Fatal(err)
	}
	pi.SetReadDeadline(time.Now().Add(time.Second))
	nn, _, err = pi.ReadFromAddrPort(buf)
	if err != nil || string(buf[:nn]) != "3rd" {
		t.Fatalf("full-cone third-party delivery failed: %v %q", err, buf[:nn])
	}
}

func TestNATAddressRestrictedFiltering(t *testing.T) {
	n := New(Config{})
	server := n.MustHost(mustAddr("8.8.8.8"))
	third := n.MustHost(mustAddr("9.9.9.9"))
	nat := n.MustNAT(mustAddr("5.5.5.5"), NATAddressRestricted)
	inside := nat.MustHost(mustAddr("192.168.1.10"))

	ps, _ := server.ListenPacket(3478)
	pi, _ := inside.ListenPacket(4000)
	pt, _ := third.ListenPacket(0)

	pi.WriteToAddrPort([]byte("hi"), mustAP("8.8.8.8:3478"))
	buf := make([]byte, 64)
	ps.SetReadDeadline(time.Now().Add(time.Second))
	_, ext, _ := ps.ReadFromAddrPort(buf)

	// Third party blocked.
	pt.WriteToAddrPort([]byte("x"), ext)
	pi.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := pi.ReadFromAddrPort(buf); err == nil {
		t.Fatal("address-restricted NAT should filter unknown sender")
	}
	// Contacted address allowed.
	ps.WriteToAddrPort([]byte("ok"), ext)
	pi.SetReadDeadline(time.Now().Add(time.Second))
	if nn, _, err := pi.ReadFromAddrPort(buf); err != nil || string(buf[:nn]) != "ok" {
		t.Fatalf("contacted sender should pass: %v", err)
	}
}

func TestNATSymmetricPerDestinationPorts(t *testing.T) {
	n := New(Config{})
	s1 := n.MustHost(mustAddr("8.8.8.8"))
	s2 := n.MustHost(mustAddr("9.9.9.9"))
	nat := n.MustNAT(mustAddr("5.5.5.5"), NATSymmetric)
	inside := nat.MustHost(mustAddr("192.168.1.10"))

	p1, _ := s1.ListenPacket(1000)
	p2, _ := s2.ListenPacket(1000)
	pi, _ := inside.ListenPacket(4000)

	pi.WriteToAddrPort([]byte("a"), mustAP("8.8.8.8:1000"))
	pi.WriteToAddrPort([]byte("b"), mustAP("9.9.9.9:1000"))

	buf := make([]byte, 64)
	p1.SetReadDeadline(time.Now().Add(time.Second))
	_, ext1, err := p1.ReadFromAddrPort(buf)
	if err != nil {
		t.Fatal(err)
	}
	p2.SetReadDeadline(time.Now().Add(time.Second))
	_, ext2, err := p2.ReadFromAddrPort(buf)
	if err != nil {
		t.Fatal(err)
	}
	if ext1 == ext2 {
		t.Fatalf("symmetric NAT must allocate distinct ports per destination, got %v for both", ext1)
	}
	// s2 cannot reach inside via s1's mapping.
	p2.WriteToAddrPort([]byte("steal"), ext1)
	pi.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := pi.ReadFromAddrPort(buf); err == nil {
		t.Fatal("symmetric NAT should filter cross-destination inbound")
	}
}

func TestTCPThroughNATShowsExternalAddr(t *testing.T) {
	n := New(Config{})
	server := n.MustHost(mustAddr("8.8.8.8"))
	nat := n.MustNAT(mustAddr("5.5.5.5"), NATFullCone)
	inside := nat.MustHost(mustAddr("192.168.1.10"))

	l, _ := server.Listen(80)
	got := make(chan string, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			got <- err.Error()
			return
		}
		got <- c.RemoteAddr().String()
		c.Close()
	}()
	c, err := inside.Dial(context.Background(), mustAP("8.8.8.8:80"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remote := <-got
	ap, err := netip.ParseAddrPort(remote)
	if err != nil {
		t.Fatalf("remote %q: %v", remote, err)
	}
	if ap.Addr() != mustAddr("5.5.5.5") {
		t.Fatalf("server saw %v, want NAT external", ap)
	}
}

func TestNATForwardTCP(t *testing.T) {
	n := New(Config{})
	outside := n.MustHost(mustAddr("8.8.8.8"))
	nat := n.MustNAT(mustAddr("5.5.5.5"), NATFullCone)
	inside := nat.MustHost(mustAddr("192.168.1.10"))
	l, _ := inside.Listen(8080)
	nat.Forward(80, mustAP("192.168.1.10:8080"))
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Write([]byte("fwd"))
			c.Close()
		}
	}()
	c, err := outside.Dial(context.Background(), mustAP("5.5.5.5:80"))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(c)
	if string(data) != "fwd" {
		t.Fatalf("got %q", data)
	}
}

func TestCaptureTapsSeePostNATSource(t *testing.T) {
	n := New(Config{})
	server := n.MustHost(mustAddr("8.8.8.8"))
	nat := n.MustNAT(mustAddr("5.5.5.5"), NATFullCone)
	inside := nat.MustHost(mustAddr("192.168.1.10"))

	var mu sync.Mutex
	var captured []Packet
	server.AddTap(func(p Packet) {
		mu.Lock()
		captured = append(captured, p)
		mu.Unlock()
	})

	ps, _ := server.ListenPacket(3478)
	pi, _ := inside.ListenPacket(4000)
	pi.WriteToAddrPort([]byte("stun-ish"), mustAP("8.8.8.8:3478"))
	buf := make([]byte, 64)
	ps.SetReadDeadline(time.Now().Add(time.Second))
	ps.ReadFromAddrPort(buf)

	mu.Lock()
	defer mu.Unlock()
	if len(captured) != 1 {
		t.Fatalf("captured %d packets, want 1", len(captured))
	}
	p := captured[0]
	if p.Dir != DirIn || p.Proto != ProtoUDP {
		t.Fatalf("capture meta: %+v", p)
	}
	if p.Src.Addr() != mustAddr("5.5.5.5") {
		t.Fatalf("capture src %v, want post-NAT 5.5.5.5", p.Src)
	}
	if string(p.Payload) != "stun-ish" {
		t.Fatalf("capture payload %q", p.Payload)
	}
}

func TestByteAccounting(t *testing.T) {
	n := New(Config{})
	a := n.MustHost(mustAddr("10.0.0.1"))
	b := n.MustHost(mustAddr("10.0.0.2"))
	l, _ := b.Listen(80)
	go func() {
		c, _ := l.Accept()
		io.Copy(io.Discard, c)
	}()
	c, err := a.Dial(context.Background(), mustAP("10.0.0.2:80"))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 10_000)
	c.Write(payload)
	c.Close()
	if up := a.BytesUp(); up != 10_000 {
		t.Fatalf("a.BytesUp = %d", up)
	}
	waitFor(t, time.Second, func() bool { return b.BytesDown() == 10_000 })
}

func TestBandwidthShaping(t *testing.T) {
	n := New(Config{})
	a := n.MustHost(mustAddr("10.0.0.1"))
	b := n.MustHost(mustAddr("10.0.0.2"))
	a.SetRates(100_000, 0) // 100 KB/s up

	l, _ := b.Listen(80)
	go func() {
		c, _ := l.Accept()
		io.Copy(io.Discard, c)
	}()
	c, err := a.Dial(context.Background(), mustAP("10.0.0.2:80"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	c.Write(make([]byte, 20_000)) // should take ~200ms at 100KB/s
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("shaping too fast: %v", elapsed)
	}
}

func TestLatency(t *testing.T) {
	n := New(Config{})
	a := n.MustHost(mustAddr("10.0.0.1"))
	b := n.MustHost(mustAddr("10.0.0.2"))
	a.SetLatency(25 * time.Millisecond)
	b.SetLatency(25 * time.Millisecond)

	pa, _ := a.ListenPacket(1000)
	pb, _ := b.ListenPacket(1000)
	start := time.Now()
	pa.WriteToAddrPort([]byte("x"), mustAP("10.0.0.2:1000"))
	buf := make([]byte, 8)
	pb.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := pb.ReadFromAddrPort(buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("latency not applied: %v", d)
	}
}

func TestPacketLoss(t *testing.T) {
	// Config.LossProb is [0,1) by contract; near-total loss under a fixed
	// seed drops the one datagram.
	n := New(Config{LossProb: 0.999999, Seed: 7})
	a := n.MustHost(mustAddr("10.0.0.1"))
	b := n.MustHost(mustAddr("10.0.0.2"))
	pa, _ := a.ListenPacket(1000)
	pb, _ := b.ListenPacket(1000)
	pa.WriteToAddrPort([]byte("x"), mustAP("10.0.0.2:1000"))
	pb.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 8)
	if _, _, err := pb.ReadFromAddrPort(buf); err == nil {
		t.Fatal("near-total loss delivered the datagram")
	}
}

func TestConfigLossProbValidation(t *testing.T) {
	cases := []struct {
		p  float64
		ok bool
	}{
		{0, true},
		{0.5, true},
		{0.999, true},
		{1.0, false},
		{-0.1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				r := recover()
				if tc.ok && r != nil {
					t.Errorf("LossProb=%v: unexpected panic %v", tc.p, r)
				}
				if !tc.ok && r == nil {
					t.Errorf("LossProb=%v: expected New to panic", tc.p)
				}
			}()
			New(Config{LossProb: tc.p})
		}()
	}
}

func TestHTTPOverNetsim(t *testing.T) {
	n := New(Config{})
	serverHost := n.MustHost(mustAddr("93.184.216.34"))
	clientHost := n.MustHost(mustAddr("10.1.1.1"))

	l, err := serverHost.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/hello", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hi %s", r.RemoteAddr)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(l)
	defer srv.Close()

	client := &http.Client{
		Transport: &http.Transport{DialContext: clientHost.Dialer()},
		Timeout:   5 * time.Second,
	}
	resp, err := client.Get("http://93.184.216.34:80/hello")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if want := "hi 10.1.1.1:"; len(body) < len(want) || string(body[:len(want)]) != want {
		t.Fatalf("body %q", body)
	}
}

func TestConcurrentStreams(t *testing.T) {
	n := New(Config{})
	server := n.MustHost(mustAddr("10.0.0.99"))
	l, _ := server.Listen(80)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c) // echo
			}()
		}
	}()
	defer l.Close()

	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := n.MustHost(mustAddr(fmt.Sprintf("10.0.1.%d", i+1)))
			c, err := h.Dial(context.Background(), mustAP("10.0.0.99:80"))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			msg := fmt.Sprintf("msg-%d", i)
			c.Write([]byte(msg))
			buf := make([]byte, 64)
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			nn, err := c.Read(buf)
			if err != nil || string(buf[:nn]) != msg {
				t.Errorf("echo %d: %v %q", i, err, buf[:nn])
			}
		}(i)
	}
	wg.Wait()
}

// Property: every UDP payload delivered equals the payload sent, for
// arbitrary binary contents.
func TestQuickPacketPayloadIntegrity(t *testing.T) {
	n := New(Config{})
	a := n.MustHost(mustAddr("10.0.0.1"))
	b := n.MustHost(mustAddr("10.0.0.2"))
	pa, _ := a.ListenPacket(1000)
	pb, _ := b.ListenPacket(1000)
	buf := make([]byte, 70000)
	f := func(payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		pa.WriteToAddrPort(payload, mustAP("10.0.0.2:1000"))
		pb.SetReadDeadline(time.Now().Add(time.Second))
		nn, _, err := pb.ReadFromAddrPort(buf)
		if err != nil || nn != len(payload) {
			return false
		}
		for i := range payload {
			if buf[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met before timeout")
}

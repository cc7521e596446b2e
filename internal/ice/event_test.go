package ice

import (
	"context"
	"encoding/binary"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/capture"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/stun"
)

func mustAgent(t *testing.T, h *netsim.Host, ufrag string) *Agent {
	t.Helper()
	a, err := NewAgent(h, ufrag)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// TestCheckReturnsOnTheAnswer: between two public hosts each side has
// one candidate, so the first binding success settles the nomination.
// Check must return on it — well inside the retransmission interval,
// with every request on the wire sent exactly once.
func TestCheckReturnsOnTheAnswer(t *testing.T) {
	tb := newTestbed(t)
	ha := tb.net.MustHost(netip.MustParseAddr("20.0.0.1"))
	hb := tb.net.MustHost(netip.MustParseAddr("20.0.0.2"))
	a, b := mustAgent(t, ha, "a"), mustAgent(t, hb, "b")
	ctx := context.Background()
	if _, err := a.Gather(ctx, tb.stunServer); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Gather(ctx, tb.stunServer); err != nil {
		t.Fatal(err)
	}
	rec := capture.NewRecorder(0)
	ha.AddTap(rec.Tap)

	start := time.Now()
	nomA, nomB := connectPair(t, tb, a, b)
	elapsed := time.Since(start)
	if nomA.Addr != b.LocalAddr() || nomB.Addr != a.LocalAddr() {
		t.Fatalf("nominations %v / %v", nomA, nomB)
	}
	if elapsed >= checkInterval/2 {
		t.Fatalf("connect took %v: Check waited for the %v tick instead of the answer", elapsed, checkInterval)
	}
	requests := map[netip.AddrPort]int{} // connectivity checks seen at A, by sender
	for _, ob := range capture.FindSTUN(rec.Packets()) {
		if ob.Msg.Type == stun.TypeBindingRequest && ob.Msg.Username != "" {
			requests[ob.Packet.Src]++
		}
	}
	if requests[a.LocalAddr()] != 1 || requests[b.LocalAddr()] != 1 || len(requests) != 2 {
		t.Fatalf("binding requests by sender %v: want one each way, none retransmitted", requests)
	}
}

// TestNominationByTopology pins which candidate each side nominates,
// and whether the nomination could be made on the answer or had to wait
// for the tick (a better candidate was still unanswered).
func TestNominationByTopology(t *testing.T) {
	type side struct {
		nat  netsim.NATType // 0 = public host
		wan  string         // NAT external address, or the public host's own
		priv string
	}
	cases := []struct {
		name    string
		a, b    side
		sameNAT bool
		wantA   string // candidate type A nominates for B ("" = check fails)
		wantB   string
		atTick  bool // some nomination needed the tick
	}{
		{name: "public-public",
			a: side{wan: "20.0.0.1"}, b: side{wan: "20.0.0.2"},
			wantA: TypeHost, wantB: TypeHost},
		{name: "public-fullcone",
			a: side{wan: "20.0.0.1"}, b: side{nat: netsim.NATFullCone, wan: "7.7.7.7", priv: "192.168.7.5"},
			wantA: TypeSrflx, wantB: TypeHost, atTick: true},
		{name: "fullcone-fullcone",
			a:     side{nat: netsim.NATFullCone, wan: "6.6.6.6", priv: "192.168.0.5"},
			b:     side{nat: netsim.NATFullCone, wan: "7.7.7.7", priv: "192.168.7.5"},
			wantA: TypeSrflx, wantB: TypeSrflx, atTick: true},
		{name: "restricted-restricted",
			a:     side{nat: netsim.NATAddressRestricted, wan: "6.6.6.6", priv: "192.168.0.5"},
			b:     side{nat: netsim.NATAddressRestricted, wan: "7.7.7.7", priv: "192.168.1.5"},
			wantA: TypeSrflx, wantB: TypeSrflx, atTick: true},
		// Behind one NAT both the private host candidate and the hairpinned
		// srflx candidate answer; the host candidate must win.
		{name: "same-nat", sameNAT: true,
			a:     side{nat: netsim.NATFullCone, wan: "6.6.6.6", priv: "192.168.0.5"},
			b:     side{priv: "192.168.0.6"},
			wantA: TypeHost, wantB: TypeHost},
		{name: "symmetric-symmetric",
			a: side{nat: netsim.NATSymmetric, wan: "6.6.6.6", priv: "192.168.0.5"},
			b: side{nat: netsim.NATSymmetric, wan: "7.7.7.7", priv: "192.168.1.5"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(t)
			var shared *netsim.NAT
			place := func(s side) *netsim.Host {
				switch {
				case tc.sameNAT && shared != nil:
					return shared.MustHost(netip.MustParseAddr(s.priv))
				case s.priv == "":
					return tb.net.MustHost(netip.MustParseAddr(s.wan))
				}
				shared = tb.net.MustNAT(netip.MustParseAddr(s.wan), s.nat)
				return shared.MustHost(netip.MustParseAddr(s.priv))
			}
			a, b := mustAgent(t, place(tc.a), "a"), mustAgent(t, place(tc.b), "b")

			ctx, cancel := context.WithTimeout(context.Background(), 10*checkInterval)
			defer cancel()
			ca, err := a.Gather(ctx, tb.stunServer)
			if err != nil {
				t.Fatal(err)
			}
			cb, err := b.Gather(ctx, tb.stunServer)
			if err != nil {
				t.Fatal(err)
			}
			type result struct {
				nom Candidate
				err error
			}
			resB := make(chan result, 1)
			start := time.Now()
			go func() {
				nom, err := b.Check(ctx, ca)
				resB <- result{nom, err}
			}()
			nomA, errA := a.Check(ctx, cb)
			rb := <-resB
			elapsed := time.Since(start)

			if tc.wantA == "" {
				if errA == nil || rb.err == nil {
					t.Fatalf("checks should fail, got %+v (%v) / %+v (%v)", nomA, errA, rb.nom, rb.err)
				}
				return
			}
			if errA != nil || rb.err != nil {
				t.Fatalf("checks failed: %v / %v", errA, rb.err)
			}
			if nomA.Type != tc.wantA || rb.nom.Type != tc.wantB {
				t.Fatalf("nominated %s / %s, want %s / %s", nomA.Type, rb.nom.Type, tc.wantA, tc.wantB)
			}
			if tc.atTick && elapsed < checkInterval {
				t.Fatalf("nominated after %v, before the %v tick had ruled out the better candidate", elapsed, checkInterval)
			}
			if !tc.atTick && elapsed >= checkInterval {
				t.Fatalf("nominated after %v: the top candidate's answer should not wait for the tick", elapsed)
			}
		})
	}
}

// TestHostCandidateBeatsEarlierSrflx: the srflx candidate answers at
// once and the host candidate a round trip later, inside the same tick.
// The early answer must not be nominated.
func TestHostCandidateBeatsEarlierSrflx(t *testing.T) {
	tb := newTestbed(t)
	a := mustAgent(t, tb.net.MustHost(netip.MustParseAddr("20.0.0.1")), "a")
	slow := tb.net.MustHost(netip.MustParseAddr("20.0.0.2"))
	slow.SetLatency(5 * time.Millisecond)
	viaHost := mustAgent(t, slow, "b")
	viaSrflx := mustAgent(t, tb.net.MustHost(netip.MustParseAddr("20.0.0.3")), "b")
	for _, ag := range []*Agent{viaHost, viaSrflx} {
		if _, err := ag.Gather(context.Background(), netip.AddrPort{}); err != nil {
			t.Fatal(err)
		}
	}
	host := Candidate{Type: TypeHost, Addr: viaHost.LocalAddr(), Priority: priority(prefHost, 1)}
	srflx := Candidate{Type: TypeSrflx, Addr: viaSrflx.LocalAddr(), Priority: priority(prefSrflx, 1)}

	nom, err := a.Check(context.Background(), []Candidate{srflx, host})
	if err != nil {
		t.Fatal(err)
	}
	if nom != host {
		t.Fatalf("nominated %+v, want the host candidate", nom)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.succeeded[srflx.Addr] {
		t.Fatal("the srflx candidate had not answered: the test raced nothing")
	}
}

// TestCheckLeavesNoTransactions: every request Check sends opens a
// transaction; the ones nobody answered must go when Check returns, and
// a finished srflx query must not stay registered.
func TestCheckLeavesNoTransactions(t *testing.T) {
	tb := newTestbed(t)
	a := mustAgent(t, tb.net.MustHost(netip.MustParseAddr("20.0.0.1")), "a")
	if _, err := a.Gather(context.Background(), tb.stunServer); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*checkInterval+checkInterval/2)
	defer cancel()
	dead := []Candidate{
		{Type: TypeHost, Addr: netip.MustParseAddrPort("20.9.9.9:1"), Priority: 2},
		{Type: TypeSrflx, Addr: netip.MustParseAddrPort("20.9.9.8:1"), Priority: 1},
	}
	if _, err := a.Check(ctx, dead); err == nil {
		t.Fatal("check against dead candidates should fail")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.pending) != 0 || len(a.queries) != 0 {
		t.Fatalf("left %d check transactions and %d queries behind", len(a.pending), len(a.queries))
	}
}

// TestOversizedDatagramIsDropped: a datagram longer than the agent's
// read buffer is cut short, fails to decode and is dropped; the agent
// keeps answering.
func TestOversizedDatagramIsDropped(t *testing.T) {
	tb := newTestbed(t)
	ha := tb.net.MustHost(netip.MustParseAddr("20.0.0.1"))
	hb := tb.net.MustHost(netip.MustParseAddr("20.0.0.2"))
	a, b := mustAgent(t, ha, "a"), mustAgent(t, hb, "b")

	big := make([]byte, stun.MaxMessageSize+500)
	copy(big, stun.BindingRequest("x", 1).Encode()[:20])
	binary.BigEndian.PutUint16(big[2:4], uint16(len(big)-20)) // a well-formed length, past the buffer
	pc, err := hb.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := a.Gather(context.Background(), tb.stunServer); err != nil { // starts A's read loop
		t.Fatal(err)
	}
	if _, err := pc.WriteToAddrPort(big, a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	pc.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, _, err := pc.ReadFromAddrPort(make([]byte, 64)); err == nil {
		t.Fatalf("agent answered an oversized datagram with %d bytes", n)
	}
	connectPair(t, tb, a, b)
}

// TestCloseEndsBlockedLoops: the read loops block in their socket with
// no deadline armed, so nothing but Close (or, for ServeSTUN, the
// context) wakes them — and that must end them at once and for good.
func TestCloseEndsBlockedLoops(t *testing.T) {
	n := netsim.New(netsim.Config{})
	settle := func(baseline int) bool {
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if runtime.NumGoroutine() <= baseline {
				return true
			}
		}
		return false
	}
	baseline := runtime.NumGoroutine()

	pc, err := n.MustHost(netip.MustParseAddr("8.8.8.8")).ListenPacket(3478)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		ServeSTUN(ctx, pc)
	}()
	agents := make([]*Agent, 8)
	for i := range agents {
		a, err := NewAgent(n.MustHost(netip.AddrFrom4([4]byte{20, 0, 0, byte(i + 1)})), "a")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Gather(context.Background(), netip.MustParseAddrPort("8.8.8.8:3478")); err != nil {
			t.Fatal(err)
		}
		agents[i] = a
	}
	time.Sleep(2 * queryInterval) // loops idle: a deadline-driven loop would be mid-sleep now

	cancel()
	select {
	case <-served:
	case <-time.After(queryInterval / 4):
		t.Fatal("ServeSTUN did not return on cancellation: it is waiting for a deadline tick")
	}
	for _, a := range agents {
		a.Close()
	}
	if !settle(baseline) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines left after Close:\n%s", runtime.NumGoroutine()-baseline, buf[:runtime.Stack(buf, true)])
	}
}

package capture

import (
	"net/netip"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/stun"
)

func ap(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

func udpPkt(src, dst string, payload []byte, dir netsim.Direction) netsim.Packet {
	return netsim.Packet{Proto: netsim.ProtoUDP, Dir: dir, Src: ap(src), Dst: ap(dst), Payload: payload}
}

func tcpPkt(src, dst string, payload []byte, dir netsim.Direction) netsim.Packet {
	return netsim.Packet{Proto: netsim.ProtoTCP, Dir: dir, Src: ap(src), Dst: ap(dst), Payload: payload}
}

func dtlsHandshakeBytes() []byte {
	return []byte{0x16, 0xfe, 0xfd, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
}

func dtlsAppDataBytes() []byte {
	return []byte{0x17, 0xfe, 0xfd, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
}

func TestRecorderTapAndLimit(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Tap(udpPkt("1.1.1.1:1", "2.2.2.2:2", []byte{byte(i)}, netsim.DirIn))
	}
	if got := len(r.Packets()); got != 2 {
		t.Fatalf("limit not enforced: %d", got)
	}
	r.Reset()
	if len(r.Packets()) != 0 {
		t.Fatal("reset failed")
	}
}

func TestFindSTUN(t *testing.T) {
	req := stun.BindingRequest("u:p", 1).Encode()
	pkts := []netsim.Packet{
		udpPkt("9.9.9.9:5000", "8.8.8.8:3478", req, netsim.DirIn),
		udpPkt("9.9.9.9:5000", "8.8.8.8:3478", []byte("not stun at all......."), netsim.DirIn),
		tcpPkt("9.9.9.9:5000", "8.8.8.8:80", req, netsim.DirIn), // STUN over TCP not classified
	}
	obs := FindSTUN(pkts)
	if len(obs) != 1 {
		t.Fatalf("found %d STUN messages, want 1", len(obs))
	}
	if obs[0].Msg.Type != stun.TypeBindingRequest || obs[0].Msg.Username != "u:p" {
		t.Fatalf("decoded %+v", obs[0].Msg)
	}
}

func TestIsDTLSRecord(t *testing.T) {
	if hs, ok := IsDTLSRecord(dtlsHandshakeBytes()); !ok || !hs {
		t.Fatal("handshake record not recognized")
	}
	if hs, ok := IsDTLSRecord(dtlsAppDataBytes()); !ok || hs {
		t.Fatal("appdata record not recognized")
	}
	for _, bad := range [][]byte{nil, {0x16}, {0x18, 0xfe, 0xfd}, {0x16, 0x03, 0x03}, []byte("GET / HTTP/1.1")} {
		if _, ok := IsDTLSRecord(bad); ok {
			t.Fatalf("accepted %v", bad)
		}
	}
}

func TestConfirmPDNRequiresBothSignals(t *testing.T) {
	req := stun.BindingRequest("a:b", 1).Encode()
	a, b := "5.5.5.5:4000", "6.6.6.6:4001"

	// STUN only: not confirmed.
	stunOnly := []netsim.Packet{udpPkt(a, b, req, netsim.DirOut)}
	if ConfirmPDN(stunOnly) {
		t.Fatal("STUN alone must not confirm PDN")
	}
	// DTLS only: not confirmed.
	dtlsOnly := []netsim.Packet{tcpPkt(a, b, dtlsHandshakeBytes(), netsim.DirOut)}
	if ConfirmPDN(dtlsOnly) {
		t.Fatal("DTLS alone must not confirm PDN")
	}
	// STUN + DTLS on the same pair (different ports): confirmed.
	both := []netsim.Packet{
		udpPkt(a, b, req, netsim.DirOut),
		tcpPkt("5.5.5.5:9000", "6.6.6.6:9001", dtlsHandshakeBytes(), netsim.DirOut),
	}
	if !ConfirmPDN(both) {
		t.Fatal("STUN + DTLS on same pair should confirm PDN")
	}
	// DTLS between unrelated hosts: not confirmed.
	unrelated := []netsim.Packet{
		udpPkt(a, b, req, netsim.DirOut),
		tcpPkt("7.7.7.7:9000", "8.8.8.8:9001", dtlsHandshakeBytes(), netsim.DirOut),
	}
	if ConfirmPDN(unrelated) {
		t.Fatal("DTLS on unrelated pair must not confirm")
	}
	// AppData DTLS without handshake: not confirmed.
	appOnly := []netsim.Packet{
		udpPkt(a, b, req, netsim.DirOut),
		tcpPkt(a, b, dtlsAppDataBytes(), netsim.DirOut),
	}
	if ConfirmPDN(appOnly) {
		t.Fatal("appdata without handshake must not confirm")
	}
}

func TestConfirmPDNPairIsSymmetric(t *testing.T) {
	req := stun.BindingRequest("a:b", 1).Encode()
	pkts := []netsim.Packet{
		udpPkt("5.5.5.5:4000", "6.6.6.6:4001", req, netsim.DirOut),
		// DTLS initiated in the reverse direction.
		tcpPkt("6.6.6.6:9001", "5.5.5.5:9000", dtlsHandshakeBytes(), netsim.DirIn),
	}
	if !ConfirmPDN(pkts) {
		t.Fatal("pair matching must be direction-agnostic")
	}
}

func TestHarvestPeerIPs(t *testing.T) {
	self := netip.MustParseAddr("5.5.5.5")
	reqFromPeer := stun.BindingRequest("x:y", 1).Encode()
	respWithMapped := stun.BindingSuccess(stun.NewTxID(), ap("100.64.0.7:1234")).Encode()

	pkts := []netsim.Packet{
		// Inbound binding from a public peer: source harvested.
		udpPkt("9.9.9.9:4000", "5.5.5.5:4001", reqFromPeer, netsim.DirIn),
		// Inbound response carrying a mapped (CGN) address: both source
		// and mapped address harvested.
		udpPkt("7.7.7.7:3478", "5.5.5.5:4001", respWithMapped, netsim.DirIn),
		// Outbound message: source is self, not harvested from Src.
		udpPkt("5.5.5.5:4001", "9.9.9.9:4000", reqFromPeer, netsim.DirOut),
		// Duplicate inbound: no double counting.
		udpPkt("9.9.9.9:4000", "5.5.5.5:4001", reqFromPeer, netsim.DirIn),
	}
	got := HarvestPeerIPs(pkts, self)
	want := map[string]bool{"9.9.9.9": true, "7.7.7.7": true, "100.64.0.7": true}
	if len(got) != len(want) {
		t.Fatalf("harvested %v, want %d addrs", got, len(want))
	}
	for _, a := range got {
		if !want[a.String()] {
			t.Fatalf("unexpected harvested addr %v in %v", a, got)
		}
	}
}

func TestHarvestSkipsSTUNServer(t *testing.T) {
	self := netip.MustParseAddr("5.5.5.5")
	query := stun.BindingRequest("", 0)
	answer := stun.BindingSuccess(query.Tx, ap("5.5.5.5:4001")).Encode()
	check := stun.BindingRequest("peer", 1).Encode()

	pkts := []netsim.Packet{
		// The server-reflexive query and the STUN server's answer: infrastructure.
		udpPkt("5.5.5.5:4001", "44.1.1.1:3478", query.Encode(), netsim.DirOut),
		udpPkt("44.1.1.1:3478", "5.5.5.5:4001", answer, netsim.DirIn),
		// A peer's connectivity check: harvested.
		udpPkt("36.96.0.1:5000", "5.5.5.5:4001", check, netsim.DirIn),
	}
	got := HarvestPeerIPs(pkts, self)
	if len(got) != 1 || got[0] != netip.MustParseAddr("36.96.0.1") {
		t.Fatalf("harvested %v, want only the peer 36.96.0.1", got)
	}
}

func TestRecorderUnlimited(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 1000; i++ {
		r.Tap(udpPkt("1.1.1.1:1", "2.2.2.2:2", []byte{1}, netsim.DirIn))
	}
	if len(r.Packets()) != 1000 {
		t.Fatal("unlimited recorder dropped packets")
	}
}

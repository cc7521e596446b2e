// Package capture is the testbed's tcpdump + Wireshark-script
// equivalent: it records traffic at a simulated host and classifies it
// the way the paper's pipeline does — identifying plaintext STUN binding
// exchanges, spotting DTLS records between candidate peer pairs, and
// harvesting the peer IP addresses that STUN exposes.
//
// The paper's dynamic PDN detector declares a site a confirmed PDN
// customer when it observes STUN binding requests followed by a DTLS
// connection between known candidate peers (§III-C); ConfirmPDN encodes
// that rule. Its IP-leak experiments extract "IP exchange requests and
// responses in STUN protocols" from captures (§IV-D); HarvestPeerIPs
// encodes that script.
package capture

import (
	"net/netip"
	"sync"

	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/stun"
)

// Recorder buffers packets observed at one host. Attach it with
// host.AddTap(rec.Tap). It is safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	packets []netsim.Packet
	limit   int
}

// NewRecorder returns a recorder retaining at most limit packets
// (0 means unlimited).
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

// Tap is the netsim.Tap to register on the observed host.
func (r *Recorder) Tap(p netsim.Packet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.limit > 0 && len(r.packets) >= r.limit {
		return
	}
	r.packets = append(r.packets, p)
}

// Packets returns a snapshot of the recorded traffic.
func (r *Recorder) Packets() []netsim.Packet {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]netsim.Packet, len(r.packets))
	copy(out, r.packets)
	return out
}

// Reset discards all recorded packets.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.packets = nil
}

// STUNObservation is one decoded STUN message seen on the wire.
type STUNObservation struct {
	Packet netsim.Packet
	Msg    *stun.Message
}

// FindSTUN decodes every captured datagram that parses as STUN.
func FindSTUN(packets []netsim.Packet) []STUNObservation {
	var out []STUNObservation
	for _, p := range packets {
		if p.Proto != netsim.ProtoUDP || !stun.Is(p.Payload) {
			continue
		}
		m, err := stun.Decode(p.Payload)
		if err != nil {
			continue
		}
		out = append(out, STUNObservation{Packet: p, Msg: m})
	}
	return out
}

// DTLSObservation is one DTLS record sighting.
type DTLSObservation struct {
	Packet    netsim.Packet
	Handshake bool // true for ContentHandshake records
}

// IsDTLSRecord reports whether a payload starts with a DTLS record
// header: a handshake (0x16) or application-data (0x17) content type
// followed by the DTLS 1.2 version bytes.
func IsDTLSRecord(payload []byte) (handshake, ok bool) {
	if len(payload) < 3 {
		return false, false
	}
	if payload[1] != 0xfe || payload[2] != 0xfd {
		return false, false
	}
	switch payload[0] {
	case 0x16:
		return true, true
	case 0x17:
		return false, true
	default:
		return false, false
	}
}

// FindDTLS returns every captured transmission that begins a DTLS record.
func FindDTLS(packets []netsim.Packet) []DTLSObservation {
	var out []DTLSObservation
	for _, p := range packets {
		hs, ok := IsDTLSRecord(p.Payload)
		if !ok {
			continue
		}
		out = append(out, DTLSObservation{Packet: p, Handshake: hs})
	}
	return out
}

// ConfirmPDN applies the paper's dynamic-detection rule to a capture:
// PDN traffic is confirmed when (a) at least one STUN binding request is
// observed, and (b) a DTLS handshake record follows between a host pair
// that also exchanged STUN. Host pairs are compared by address only
// (ports differ between the ICE and transport flows).
func ConfirmPDN(packets []netsim.Packet) bool {
	stunPairs := make(map[[2]netip.Addr]bool)
	sawBinding := false
	for _, obs := range FindSTUN(packets) {
		if obs.Msg.Type == stun.TypeBindingRequest {
			sawBinding = true
		}
		stunPairs[pairKey(obs.Packet.Src.Addr(), obs.Packet.Dst.Addr())] = true
	}
	if !sawBinding {
		return false
	}
	for _, obs := range FindDTLS(packets) {
		if !obs.Handshake {
			continue
		}
		if stunPairs[pairKey(obs.Packet.Src.Addr(), obs.Packet.Dst.Addr())] {
			return true
		}
	}
	return false
}

func pairKey(a, b netip.Addr) [2]netip.Addr {
	if b.Less(a) {
		a, b = b, a
	}
	return [2]netip.Addr{a, b}
}

// HarvestPeerIPs extracts every peer address a capture exposes to the
// observing host: source addresses of STUN messages it received and any
// XOR-MAPPED-ADDRESS / candidate addresses carried inside them. self is
// excluded, and so is the STUN server: a binding request without a
// USERNAME is a server-reflexive query (ICE checks always carry one), and
// the answer to it comes from infrastructure and maps the observer's own
// address. This is the paper's IP-leak harvesting script.
func HarvestPeerIPs(packets []netsim.Packet, self netip.Addr) []netip.Addr {
	stuns := FindSTUN(packets)
	queries := make(map[stun.TxID]bool)
	for _, obs := range stuns {
		if obs.Packet.Dir == netsim.DirOut && obs.Msg.Type == stun.TypeBindingRequest && obs.Msg.Username == "" {
			queries[obs.Msg.Tx] = true
		}
	}
	seen := make(map[netip.Addr]bool)
	var out []netip.Addr
	add := func(a netip.Addr) {
		if !a.IsValid() || a == self || seen[a] {
			return
		}
		seen[a] = true
		out = append(out, a)
	}
	for _, obs := range stuns {
		if obs.Packet.Dir == netsim.DirIn {
			if queries[obs.Msg.Tx] {
				continue // the STUN server's answer
			}
			add(obs.Packet.Src.Addr())
		}
		if obs.Msg.XORMappedAddress.IsValid() {
			add(obs.Msg.XORMappedAddress.Addr())
		}
	}
	return out
}

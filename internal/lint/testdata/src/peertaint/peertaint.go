// Package peertaint exercises the interprocedural peer-identity taint
// analyzer: sources (RemoteAddr, geoip lookups, peerstore entries),
// sinks (logs, trace attributes, metric labels, wire and data-channel
// payloads, chaos events), sanitizers (internal/privacy), and the
// field-granular struct taint that keeps intentional protocol flows
// quiet.
package peertaint

import (
	"fmt"
	"log"
	"net"
	"net/netip"

	"github.com/stealthy-peers/pdnsec/internal/chaos"
	"github.com/stealthy-peers/pdnsec/internal/dtls"
	"github.com/stealthy-peers/pdnsec/internal/geoip"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/privacy"
	"github.com/stealthy-peers/pdnsec/internal/secure"
	"github.com/stealthy-peers/pdnsec/internal/wire"
)

// ---- direct source → sink ----

func direct(conn net.Conn) {
	log.Printf("conn from %s", conn.RemoteAddr()) // want `peer-identifying value from RemoteAddr\(\) .* reaches log output`
}

// ---- interprocedural: source and sink in different functions ----

// clientAddr is the source function: the taint enters here and flows
// out through the return value.
func clientAddr(conn net.Conn) string {
	return conn.RemoteAddr().String()
}

// logIt is the sink function: the tainted argument arrives through the
// parameter.
func logIt(s string) {
	log.Println("peer", s) // want `peer-identifying value from RemoteAddr\(\) .* reaches log output; path: .*clientAddr.*logIt`
}

func relay(conn net.Conn) {
	logIt(clientAddr(conn))
}

func useReturn(conn net.Conn) {
	a := clientAddr(conn)
	fmt.Println(a) // want `peer-identifying value from RemoteAddr\(\) .* reaches log output`
}

// ---- observability sinks ----

func traceAttr(tr *obs.Tracer, conn net.Conn) {
	a := conn.RemoteAddr().String()
	tr.Event("join", obs.A("addr", a)) // want `peer-identifying value from RemoteAddr\(\) .* reaches trace attribute`
}

func metricLabel(vec *obs.CounterVec, conn net.Conn) {
	vec.With(clientAddr(conn)).Inc() // want `peer-identifying value from RemoteAddr\(\) .* reaches metric label value`
}

func wirePayload(codec *wire.Codec, conn net.Conn) {
	codec.Send("gossip", clientAddr(conn)) // want `peer-identifying value from RemoteAddr\(\) .* reaches wire frame payload`
}

// Both P2P transports send through the one record layer, so one sink
// covers the anonymous and the authenticated channel.
func dataChannelPayload(d *dtls.Conn, s *secure.Conn, conn net.Conn) {
	d.Send([]byte(clientAddr(conn))) // want `peer-identifying value from RemoteAddr\(\) .* reaches peer data-channel payload`
	s.Send([]byte(clientAddr(conn))) // want `peer-identifying value from RemoteAddr\(\) .* reaches peer data-channel payload`
	// Every part of a gathered send is payload.
	d.SendParts([]byte("hdr"), []byte(clientAddr(conn))) // want `peer-identifying value from RemoteAddr\(\) .* reaches peer data-channel payload`
}

func chaosEvent(conn net.Conn) chaos.Event {
	return chaos.Event{Fault: "partition", Detail: clientAddr(conn)} // want `peer-identifying value from RemoteAddr\(\) .* reaches chaos event field`
}

// ---- trace propagation fields are sinks ----

// Relay models the signaling relay message: its Trace field carries an
// encoded obs.TraceContext to another process's trace file.
type Relay struct {
	To    string
	Trace string
}

type p2pMsg struct {
	Op    string
	Trace string
}

func traceFieldLiteral(conn net.Conn) Relay {
	return Relay{To: "p2", Trace: clientAddr(conn)} // want `peer-identifying value from RemoteAddr\(\) .* reaches trace propagation field`
}

func traceFieldAssign(conn net.Conn) {
	var m p2pMsg
	m.Trace = clientAddr(conn) // want `peer-identifying value from RemoteAddr\(\) .* reaches trace propagation field`
	_ = m
}

func traceFieldClean(tc string) Relay {
	// Opaque encoded trace contexts (hex identifiers) are the intended
	// payload; sibling fields stay unchecked.
	return Relay{To: "p2", Trace: tc}
}

// ---- declared source fields and types ----

type Peerstore struct{ entries []string }

func (p *Peerstore) Candidates() []string { return p.entries }

func storeDump(p *Peerstore) {
	for _, e := range p.Candidates() {
		log.Println("candidate", e) // want `peer-identifying value from peerstore entries .* reaches log output`
	}
}

// ---- geoip: coarse fields are exempt, the record is not ----

func geoCoarse(db *geoip.DB, a netip.Addr) {
	log.Println("country", db.Lookup(a).Country) // coarse field: clean
}

func geoRecord(db *geoip.DB, a netip.Addr) {
	rec := db.Lookup(a)
	log.Println("rec", rec.Addr) // want `peer-identifying value from geoip.Lookup record .* reaches log output`
}

// ---- sanitizers stop the flow ----

func sanitized(conn net.Conn, tr *obs.Tracer) {
	log.Println("peer", privacy.Redact(clientAddr(conn)))
	tr.Event("join", obs.A("addr", privacy.Truncate(privacy.Redact(clientAddr(conn)), 16)))
}

// ---- struct taint is field-granular ----

type session struct {
	id   string
	addr string
}

func fieldGranular(conn net.Conn) {
	s := session{id: "p1", addr: clientAddr(conn)}
	log.Println("session", s.id)   // sibling field: clean
	log.Println("session", s.addr) // want `peer-identifying value from RemoteAddr\(\) .* reaches log output`
}

// ---- per-host ledgers: addr-keyed maps leak via keys, not counts ----

// identityCounts models the matcher's host ledger: a map keyed by the
// client address. The key write poisons the container itself.
func identityCounts(conns []net.Conn) map[string]int {
	counts := make(map[string]int)
	for _, c := range conns {
		counts[clientAddr(c)]++
	}
	return counts
}

func ledgerDumpKeys(conns []net.Conn) {
	for addr, n := range identityCounts(conns) {
		log.Printf("host %s holds %d identities", addr, n) // want `peer-identifying value from RemoteAddr\(\) .* reaches log output`
	}
}

func ledgerAggregates(conns []net.Conn) {
	peak := 0
	for _, n := range identityCounts(conns) {
		if n > peak {
			peak = n
		}
	}
	log.Println("peak identities", peak) // int-only aggregate: clean
}

func ledgerRedacted(conns []net.Conn, tr *obs.Tracer) {
	for addr, n := range identityCounts(conns) {
		tr.Event("host", obs.A("host", privacy.Redact(addr)), obs.A("identities", fmt.Sprint(n)))
	}
}

// hostFootprint mirrors signal.HostStat: the anonymized per-host
// aggregate is int-only by design, so publishing it stays clean.
type hostFootprint struct {
	Identities int
	Peak       int
}

func footprints(conns []net.Conn) []hostFootprint {
	var out []hostFootprint
	for _, n := range identityCounts(conns) {
		out = append(out, hostFootprint{Identities: n, Peak: n})
	}
	return out
}

func footprintDump(conns []net.Conn) {
	for _, f := range footprints(conns) {
		log.Printf("host identities=%d peak=%d", f.Identities, f.Peak) // anonymized aggregates: clean
	}
}

// ---- identity-free derivations are clean ----

func derived(conn net.Conn) {
	a := clientAddr(conn)
	log.Println("len", len(a))
	log.Println("ok", a != "")
}

// ---- suppression directive is honored ----

func suppressed(conn net.Conn) {
	//lint:ignore pdnlint/peertaint attack-measurement harness output
	log.Println("raw", clientAddr(conn))
}

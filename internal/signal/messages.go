// Package signal implements the PDN server — the trusted third party
// that authenticates peers, groups them into per-content swarms, brokers
// candidate exchange for WebRTC connections, collects usage statistics,
// and (when the defense is enabled) arbitrates segment integrity
// metadata.
//
// The protocol mirrors what the paper observed by MITMing commercial
// PDN signaling channels: a join carrying a static API key plus
// client-reported Origin/Referer headers, followed by candidate
// exchange and peer matching. Authentication trusts exactly what the
// deployed services trust, so the paper's cross-domain and
// domain-spoofing attacks work — or fail — for the same reasons.
package signal

import (
	"encoding/json"

	"github.com/stealthy-peers/pdnsec/internal/ice"
	"github.com/stealthy-peers/pdnsec/internal/media"
)

// Message type identifiers on the signaling channel.
const (
	MsgJoin     = "join"
	MsgWelcome  = "welcome"
	MsgError    = "error"
	MsgGetPeers = "get_peers"
	MsgPeers    = "peers"
	MsgStats    = "stats"
	MsgRelay    = "relay"
	MsgIMReport = "im_report"
	MsgGetSIM   = "get_sim"
	MsgSIM      = "sim"
	MsgBye      = "bye"
	// MsgBadKey reports a failed static-key possession proof observed
	// during a secure-transport handshake; enough distinct reporters
	// quarantine the key (leaked/replayed-key defense).
	MsgBadKey = "bad_key"
	// MsgPeerGone is a server push: the listed peers left their swarm.
	// It is sent only to peers the departed peer was advertised to, and
	// the server coalesces simultaneous departures into one frame.
	MsgPeerGone = "peer_gone"
	// MsgRedirect answers every join that reached a federated server
	// which does not own the requested swarm; the client rejoins at the
	// owner it names.
	MsgRedirect = "redirect"
)

// Error codes returned in ErrorInfo.
const (
	CodeAuthFailed  = "auth_failed"
	CodeBadRequest  = "bad_request"
	CodeNotFound    = "not_found"
	CodeBlacklisted = "blacklisted"
)

// JoinRequest is the first message a peer sends. APIKey/Origin/Referer
// model public providers; Token/VideoURL model private providers.
type JoinRequest struct {
	APIKey   string `json:"api_key,omitempty"`
	Origin   string `json:"origin,omitempty"`
	Referer  string `json:"referer,omitempty"`
	Token    string `json:"token,omitempty"`
	VideoURL string `json:"video_url,omitempty"`

	Video     string `json:"video"`
	Rendition string `json:"rendition"`

	// Fingerprint is the peer's DTLS certificate fingerprint, shared so
	// other peers can authenticate the transport.
	Fingerprint string `json:"fingerprint"`
	// StaticKey is the peer's hex ed25519 static public key for the
	// authenticated secure transport. Registering it inside the
	// (authenticated) join is what lets the matcher vouch for it: the
	// voucher in the welcome binds this key to the session the join's
	// credential admitted.
	StaticKey string `json:"static_key,omitempty"`

	// Trace is the encoded obs.TraceContext of the client's join span,
	// so the serving server's spans stitch into the client's trace. It
	// carries opaque identifiers only — never addresses (pdnlint
	// peertaint treats it as a sink).
	Trace string `json:"trace,omitempty"`
}

// Policy is the provider-controlled SDK configuration delivered at join.
// The paper found this object unprotected in Peer5's JavaScript and used
// it to identify apps allowing cellular upload (§IV-D).
type Policy struct {
	// P2PEnabled gates the whole PDN path.
	P2PEnabled bool `json:"p2p_enabled"`
	// SlowStartSegments is how many leading segments must come from the
	// CDN before P2P kicks in — the "slow start" that defeats the
	// direct content pollution attack.
	SlowStartSegments int `json:"slow_start_segments"`
	// MaxNeighbors caps concurrent P2P neighbors.
	MaxNeighbors int `json:"max_neighbors"`
	// CellularDownload / CellularUpload control whether metered peers
	// consume cellular data for each direction ("leech mode" is
	// download-only).
	CellularDownload bool `json:"cellular_download"`
	CellularUpload   bool `json:"cellular_upload"`
	// GeoMatchCountry restricts peer matching to same-country peers —
	// the paper's §V-C mitigation for the IP-leak risk.
	GeoMatchCountry bool `json:"geo_match_country"`
	// MaxUploadBytes caps how much a peer will upload per session —
	// the paper's §V-C mitigation for resource squatting ("limiting the
	// maximum uploading bandwidth"). Zero means unlimited, which is
	// what every deployed service ships.
	MaxUploadBytes int64 `json:"max_upload_bytes,omitempty"`
	// RequireIMChecking makes peers verify signed integrity metadata for
	// every P2P segment — the paper's §V-B defense.
	RequireIMChecking bool `json:"require_im_checking"`
	// MaxPeersPerHost is the identity budget one client address gets in
	// the matcher. A host exceeding it is quarantined: its identities are
	// never advertised as candidates and its own match requests return
	// empty — the counter-knob for Sybil identity mills and single-host
	// leech farms, which are invisible to a per-identity matcher. Zero
	// disables the check, which is what every deployed service ships.
	MaxPeersPerHost int `json:"max_peers_per_host,omitempty"`
	// SecureTransport requires the authenticated peer transport
	// (internal/secure): vouched static keys, a Noise-IK-style
	// handshake, and rejection of unsigned channels. No deployed
	// service ships it — it is the provider.Secure() counterfactual.
	SecureTransport bool `json:"secure_transport,omitempty"`
	// TransportPubKey is the matcher's hex ed25519 verification key for
	// static-key vouchers, delivered alongside SecureTransport.
	TransportPubKey string `json:"transport_pub_key,omitempty"`
	// ManifestPubKey, when set, makes peers verify the provider's
	// ed25519 signature on integrity metadata — and verify every
	// segment, CDN- or peer-delivered, against the signed manifest
	// before any byte enters the cache or playback buffer.
	ManifestPubKey string `json:"manifest_pub_key,omitempty"`
}

// DefaultPolicy matches the commercial deployments the paper measured.
func DefaultPolicy() Policy {
	return Policy{
		P2PEnabled:        true,
		SlowStartSegments: 2,
		MaxNeighbors:      8,
		CellularDownload:  true,
		CellularUpload:    false,
	}
}

// Welcome acknowledges a successful join.
type Welcome struct {
	PeerID string `json:"peer_id"`
	Policy Policy `json:"policy"`
	// Voucher is the matcher's hex signature over (PeerID, swarm ID,
	// StaticKey) when the deployment runs the secure transport: the
	// credential the peer presents in its handshakes, transferring the
	// join authentication onto the channel.
	Voucher string `json:"voucher,omitempty"`
}

// Redirect points a joining peer at the federated server owning its
// swarm. Servers is the current live server list so the client can
// refresh its bootstrap peerstore in the same round trip — the pattern
// the paper observed in provider back-ends, where any bootstrap server
// returns the regional tier to actually talk to.
type Redirect struct {
	Owner   string   `json:"owner"`
	Addr    string   `json:"addr"`
	Servers []string `json:"servers,omitempty"`
}

// ErrorInfo reports a request failure.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// GetPeersReq asks for neighbor candidates.
type GetPeersReq struct {
	Max int `json:"max"`
	// Trace propagates the requesting span's obs.TraceContext so the
	// server's match span joins the segment fetch that needed neighbors.
	Trace string `json:"trace,omitempty"`
}

// PeerInfo describes a matched neighbor: an identity to send a
// connection offer to, not an address. The addresses (the IP leak,
// §IV-D) cross the relay later, in the ConnectOffer and answer of the
// connection the requester opens, and then in plaintext STUN checks.
type PeerInfo struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	// StaticKey is the neighbor's registered hex static public key.
	// Delivering it in the match response is the "IK" of the secure
	// handshake: the initiator pins the responder's key before the
	// first message flows.
	StaticKey string `json:"static_key,omitempty"`
}

// PeersResp lists matched neighbors.
type PeersResp struct {
	Peers []PeerInfo `json:"peers"`
}

// Stats is the SDK's usage report, sent once at session end; the
// server meters the owning customer from it, which is what lets free
// riders bill victims.
type Stats struct {
	P2PDownBytes int64 `json:"p2p_down_bytes"`
	P2PUpBytes   int64 `json:"p2p_up_bytes"`
	CDNDownBytes int64 `json:"cdn_down_bytes"`
}

// Relay is an opaque peer-to-peer message forwarded through the server
// (connection offers/answers during ICE).
type Relay struct {
	To      string          `json:"to"`
	From    string          `json:"from,omitempty"` // set by the server
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload,omitempty"`
	// Trace propagates the sender's obs.TraceContext end to end: the
	// server re-delivers the same struct, so the recipient can continue
	// the connection-setup trace the offer started.
	Trace string `json:"trace,omitempty"`
}

// Relay kinds used by the SDK's connection setup.
const (
	RelayOffer  = "offer"
	RelayAnswer = "answer"
)

// ConnectOffer is the payload of an "offer"/"answer" relay: the sender's
// nominated transport parameters. Its Candidates are the only addresses
// the signaling plane carries, which makes this relay the IP-leak
// channel: any swarm member that offers learns the answerer's addresses.
type ConnectOffer struct {
	Fingerprint string          `json:"fingerprint"`
	Candidates  []ice.Candidate `json:"candidates"`
	// StaticKey advertises the sender's secure-transport static key so
	// the answering side can pin it; the handshake voucher check is
	// what makes the claim trustworthy.
	StaticKey string `json:"static_key,omitempty"`
}

// PeerGone lists peers that left the swarm, pushed to the peers they
// had been matched with so connection attempts stop waiting for them.
type PeerGone struct {
	Peers []string `json:"peers"`
}

// IMReport carries a peer's integrity metadata for a CDN-downloaded
// segment (defense, §V-B).
type IMReport struct {
	Key  media.SegmentKey `json:"key"`
	Hash string           `json:"hash"`
}

// GetSIM requests the signed integrity metadata for a segment and up to
// Count-1 following ones under one signature (SIM.Window). A Count below
// 1 asks for the segment alone.
type GetSIM struct {
	Key   media.SegmentKey `json:"key"`
	Count int              `json:"count,omitempty"`
}

// BadKeyReport names a static key whose possession proof failed in a
// handshake with the reporting peer. The server counts distinct
// reporters per key and quarantines keys past a threshold.
type BadKeyReport struct {
	StaticKey string `json:"static_key"`
}

// SIM is signed integrity metadata: the server-authenticated hashes a
// peer must verify before accepting a P2P-delivered segment. Window holds
// the hashes of Key's segment and the ones after it, as many as are
// established and were asked for, and Sig is the one signature over Key
// and that list (media.VerifySIMWindow).
type SIM struct {
	Key    media.SegmentKey `json:"key"`
	Sig    string           `json:"sig"`
	Found  bool             `json:"found"`
	Window []string         `json:"window,omitempty"`
}

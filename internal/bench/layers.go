package bench

// The layer vocabulary the bench harness and its trace split speak.
// traceview.HopType files secure_handshake and p2p_answer under "other";
// this table names a layer for every span the stack emits, and
// TestSpanNamesHaveLayers fails when a traced workload emits a span
// name it does not map.
const (
	LayerSignal    = "signal"
	LayerConnect   = "connect"
	LayerHandshake = "handshake"
	LayerP2P       = "p2p"
	LayerCDN       = "cdn"
	LayerPlayback  = "playback"
)

// Layers lists the trace layers in report order.
func Layers() []string {
	return []string{LayerSignal, LayerConnect, LayerHandshake, LayerP2P, LayerCDN, LayerPlayback}
}

// spanLayers maps every span name the stack records to its layer.
var spanLayers = map[string]string{
	// Signaling round trips, client and server side.
	"peer_join":             LayerSignal,
	"signal_join_serve":     LayerSignal,
	"signal_match_serve":    LayerSignal,
	"signal_relay_serve":    LayerSignal,
	"signal_forward_splice": LayerSignal,
	// The responder's ICE gather/check/punch. The initiator's runs inside
	// the segment span that needed the neighbor and has no span of its
	// own, so it shows as playback self time.
	"p2p_answer": LayerConnect,
	// Transport handshakes, both profiles.
	"dtls_handshake":   LayerHandshake,
	"secure_handshake": LayerHandshake,
	// Segment transfer between peers.
	"p2p_request": LayerP2P,
	"p2p_serve":   LayerP2P,
	// Segment transfer from the CDN.
	"cdn_fetch":         LayerCDN,
	"cdn_segment_serve": LayerCDN,
	// The per-segment root: scheduling, verification, cache, playback.
	"segment": LayerPlayback,
}

// LayerOf returns the layer a span name belongs to, or "" when the
// table does not know the name.
func LayerOf(span string) string { return spanLayers[span] }

// Package monitor implements the testbed's per-peer resource
// accounting — the stand-in for the paper's Docker Engine stats API.
//
// The paper measured container CPU%, memory, and network I/O per second
// while peers streamed (Fig. 4/5, Table VI). The reproduction cannot
// measure a browser's real CPU, so it uses an explicit cost model fed by
// the work the peer actually performs: bytes decoded for playback,
// bytes encrypted/decrypted by the DTLS transport, bytes hashed for
// integrity metadata, and real transmit/receive counters from the
// simulated NIC. The model's coefficients are calibrated so that the
// paper's *relative* findings reproduce under the paper's workloads:
// a PDN peer costs ~15% more CPU and ~10% more memory than a plain CDN
// viewer (Fig. 4), CPU stays roughly flat as neighbor count grows while
// upload scales (Fig. 5), and IM checking adds ~3 points of CPU and
// memory (Table VI). The coefficients are data, not magic: experiments
// report them and the ablation benches vary them.
package monitor

import (
	"sync/atomic"

	"github.com/stealthy-peers/pdnsec/internal/netsim"
)

// CostModel prices each kind of work in abstract CPU work-units per
// byte, plus the memory footprint model.
type CostModel struct {
	// PlayPerByte is the cost of decoding/rendering one video byte —
	// the baseline every viewer pays.
	PlayPerByte float64
	// EncryptPerByte / DecryptPerByte price DTLS work. Decryption on
	// the hot receive path dominates; encryption of uploads pipelines
	// with idle cores, which keeps CPU roughly flat as uploads grow —
	// matching the paper's Fig. 5 observation.
	EncryptPerByte float64
	DecryptPerByte float64
	// HashPerByte prices integrity-metadata computation (Table VI).
	HashPerByte float64
	// HTTPPerByte prices plain CDN transfer handling.
	HTTPPerByte float64

	// BaseMemBytes is the resident footprint of the bare player.
	BaseMemBytes int64
	// PDNMemBytes is the fixed extra footprint of loading the PDN SDK.
	PDNMemBytes int64
	// PerNeighborMemBytes is the per-connection buffer footprint.
	PerNeighborMemBytes int64
}

// DefaultCostModel returns the calibrated model (see package comment).
func DefaultCostModel() CostModel {
	return CostModel{
		PlayPerByte:         1.0,
		EncryptPerByte:      0.04,
		DecryptPerByte:      0.22,
		HashPerByte:         0.06,
		HTTPPerByte:         0.02,
		BaseMemBytes:        100 << 20, // 100 MiB player baseline
		PDNMemBytes:         4 << 20,   // SDK + bookkeeping
		PerNeighborMemBytes: 512 << 10, // per-connection buffers
	}
}

// Meter accumulates one peer's work. All methods are safe for
// concurrent use; the On* methods are designed to be plugged into
// dtls.Config and the SDK's fetch paths. The recording methods (On*,
// Set*) are nil-safe, so an unmetered peer calls them unguarded.
type Meter struct {
	model CostModel
	host  *netsim.Host // optional: real NIC counters

	playBytes    atomic.Int64
	encryptBytes atomic.Int64
	decryptBytes atomic.Int64
	hashBytes    atomic.Int64
	httpBytes    atomic.Int64

	cacheBytes atomic.Int64
	neighbors  atomic.Int64
	pdnLoaded  atomic.Bool
}

// NewMeter creates a meter using the given model; host may be nil if
// NIC counters are not needed.
func NewMeter(model CostModel, host *netsim.Host) *Meter {
	return &Meter{model: model, host: host}
}

// OnPlayback records video bytes decoded for playback.
func (m *Meter) OnPlayback(n int) {
	if m != nil {
		m.playBytes.Add(int64(n))
	}
}

// OnEncrypt records plaintext bytes encrypted (DTLS send path).
func (m *Meter) OnEncrypt(n int) {
	if m != nil {
		m.encryptBytes.Add(int64(n))
	}
}

// OnDecrypt records plaintext bytes decrypted (DTLS receive path).
func (m *Meter) OnDecrypt(n int) {
	if m != nil {
		m.decryptBytes.Add(int64(n))
	}
}

// OnHash records bytes hashed for integrity metadata.
func (m *Meter) OnHash(n int) {
	if m != nil {
		m.hashBytes.Add(int64(n))
	}
}

// OnHTTP records bytes moved over plain HTTP (CDN path).
func (m *Meter) OnHTTP(n int) {
	if m != nil {
		m.httpBytes.Add(int64(n))
	}
}

// SetCacheBytes sets the current segment-cache footprint.
func (m *Meter) SetCacheBytes(n int64) {
	if m != nil {
		m.cacheBytes.Store(n)
	}
}

// SetNeighbors sets the current P2P connection count.
func (m *Meter) SetNeighbors(n int) {
	if m != nil {
		m.neighbors.Store(int64(n))
	}
}

// SetPDNLoaded marks the PDN SDK as active (adds its fixed footprint).
func (m *Meter) SetPDNLoaded(v bool) {
	if m != nil {
		m.pdnLoaded.Store(v)
	}
}

// Usage is a snapshot of cumulative work and current footprint.
type Usage struct {
	// CPUUnits is cumulative work in model units; rates and ratios are
	// derived by the experiments.
	CPUUnits float64 `json:"cpu_units"`
	// MemBytes is the modelled resident footprint right now.
	MemBytes int64 `json:"mem_bytes"`
	// UpBytes/DownBytes are real NIC counters (0 without a host).
	UpBytes   int64 `json:"up_bytes"`
	DownBytes int64 `json:"down_bytes"`

	PlayBytes    int64 `json:"play_bytes"`
	EncryptBytes int64 `json:"encrypt_bytes"`
	DecryptBytes int64 `json:"decrypt_bytes"`
	HashBytes    int64 `json:"hash_bytes"`
	HTTPBytes    int64 `json:"http_bytes"`
}

// Snapshot returns the current cumulative usage.
func (m *Meter) Snapshot() Usage {
	u := Usage{
		PlayBytes:    m.playBytes.Load(),
		EncryptBytes: m.encryptBytes.Load(),
		DecryptBytes: m.decryptBytes.Load(),
		HashBytes:    m.hashBytes.Load(),
		HTTPBytes:    m.httpBytes.Load(),
	}
	u.CPUUnits = float64(u.PlayBytes)*m.model.PlayPerByte +
		float64(u.EncryptBytes)*m.model.EncryptPerByte +
		float64(u.DecryptBytes)*m.model.DecryptPerByte +
		float64(u.HashBytes)*m.model.HashPerByte +
		float64(u.HTTPBytes)*m.model.HTTPPerByte
	u.MemBytes = m.model.BaseMemBytes + m.cacheBytes.Load() +
		m.neighbors.Load()*m.model.PerNeighborMemBytes
	if m.pdnLoaded.Load() {
		u.MemBytes += m.model.PDNMemBytes
	}
	if m.host != nil {
		u.UpBytes = m.host.BytesUp()
		u.DownBytes = m.host.BytesDown()
	}
	return u
}

package monitor

import (
	"net/netip"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/netsim"
)

func TestMeterAccumulates(t *testing.T) {
	model := DefaultCostModel()
	for _, tc := range []struct {
		name  string
		meter *Meter // nil: an unmetered peer's recording calls are no-ops
	}{
		{"metered", NewMeter(model, nil)},
		{"nil_receiver", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.meter
			m.OnPlayback(1000)
			m.OnEncrypt(100)
			m.OnDecrypt(200)
			m.OnHash(300)
			m.OnHTTP(400)
			m.SetCacheBytes(1 << 20)
			m.SetNeighbors(2)
			m.SetPDNLoaded(true)
			if m == nil {
				return // nothing to read back: not panicking is the property
			}
			u := m.Snapshot()
			if u.PlayBytes != 1000 || u.EncryptBytes != 100 || u.DecryptBytes != 200 || u.HashBytes != 300 || u.HTTPBytes != 400 {
				t.Fatalf("counters %+v", u)
			}
			want := 1000*model.PlayPerByte + 100*model.EncryptPerByte + 200*model.DecryptPerByte +
				300*model.HashPerByte + 400*model.HTTPPerByte
			if u.CPUUnits != want {
				t.Fatalf("CPUUnits = %v, want %v", u.CPUUnits, want)
			}
			if wantMem := model.BaseMemBytes + model.PDNMemBytes + 1<<20 + 2*model.PerNeighborMemBytes; u.MemBytes != wantMem {
				t.Fatalf("MemBytes = %d, want %d", u.MemBytes, wantMem)
			}
		})
	}
}

func TestMemoryModel(t *testing.T) {
	model := DefaultCostModel()
	m := NewMeter(model, nil)
	base := m.Snapshot().MemBytes
	if base != model.BaseMemBytes {
		t.Fatalf("base mem %d", base)
	}
	m.SetPDNLoaded(true)
	m.SetCacheBytes(6 << 20)
	m.SetNeighbors(4)
	u := m.Snapshot()
	want := model.BaseMemBytes + model.PDNMemBytes + (6 << 20) + 4*model.PerNeighborMemBytes
	if u.MemBytes != want {
		t.Fatalf("mem = %d, want %d", u.MemBytes, want)
	}
	// PDN peer memory overhead lands in the paper's ballpark (~10%).
	ratio := float64(u.MemBytes) / float64(base)
	if ratio < 1.05 || ratio > 1.20 {
		t.Fatalf("PDN memory overhead ratio %.3f outside [1.05,1.20]", ratio)
	}
}

func TestCPUOverheadCalibration(t *testing.T) {
	// Reproduce the Fig. 4 workload shape: a viewer plays X bytes; a PDN
	// peer additionally decrypts X/2 (P2P download) and encrypts X/2
	// (upload). The calibrated model should land near +15% CPU.
	model := DefaultCostModel()
	const x = 100 << 20

	plain := NewMeter(model, nil)
	plain.OnPlayback(x)
	plain.OnHTTP(x)

	pdn := NewMeter(model, nil)
	pdn.OnPlayback(x)
	pdn.OnHTTP(x / 2)
	pdn.OnDecrypt(x / 2)
	pdn.OnEncrypt(x / 2)

	ratio := pdn.Snapshot().CPUUnits / plain.Snapshot().CPUUnits
	if ratio < 1.10 || ratio > 1.20 {
		t.Fatalf("PDN CPU overhead ratio %.3f outside [1.10,1.20]", ratio)
	}
}

func TestCPURoughlyFlatWithMoreNeighbors(t *testing.T) {
	// Fig. 5: upload grows with neighbors but CPU "does not have
	// significant differences". With 3 neighbors upload triples; CPU
	// should grow by only a few percent.
	model := DefaultCostModel()
	const x = 100 << 20
	cpuWithUpload := func(up int64) float64 {
		m := NewMeter(model, nil)
		m.OnPlayback(x)
		m.OnHTTP(x / 2)
		m.OnDecrypt(x / 2)
		m.OnEncrypt(int(up))
		return m.Snapshot().CPUUnits
	}
	one := cpuWithUpload(x / 2)
	three := cpuWithUpload(3 * x / 2)
	growth := three / one
	if growth > 1.05 {
		t.Fatalf("CPU grew %.3fx with 3x upload; model should keep it roughly flat", growth)
	}
}

func TestNICCounters(t *testing.T) {
	n := netsim.New(netsim.Config{})
	h := n.MustHost(netip.MustParseAddr("10.0.0.1"))
	m := NewMeter(DefaultCostModel(), h)
	pc, err := h.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	pc.WriteToAddrPort(make([]byte, 500), netip.MustParseAddrPort("10.0.0.2:1"))
	u := m.Snapshot()
	if u.UpBytes != 500 {
		t.Fatalf("UpBytes = %d", u.UpBytes)
	}
}

func TestConcurrentMeterUse(t *testing.T) {
	m := NewMeter(DefaultCostModel(), nil)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				m.OnPlayback(1)
				m.OnEncrypt(1)
				m.Snapshot()
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	u := m.Snapshot()
	if u.PlayBytes != 4000 || u.EncryptBytes != 4000 {
		t.Fatalf("lost updates: %+v", u)
	}
}

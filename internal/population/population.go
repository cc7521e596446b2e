// Package population models the live viewer crowds behind the paper's
// in-the-wild experiments (§IV-D): a controlled peer sat in a live
// channel for a week and recorded which viewer addresses the PDN handed
// it. Real crowds are unavailable to the reproduction, so channels are
// described by the distributions the paper measured — country mix,
// harvest volume, and the bogon fraction produced by NAT-traversal
// errors — and viewers are emitted as STUN traffic against the
// controlled peer's capture. The harvesting and classification pipeline
// downstream (capture.HarvestPeerIPs + geoip) is the same code the lab
// experiments use on fully live traffic.
package population

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"github.com/stealthy-peers/pdnsec/internal/geoip"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/stun"
)

// ChannelModel describes one live channel's viewer population.
type ChannelModel struct {
	// Name labels the channel in reports, e.g. "huya-live".
	Name string
	// Viewers is the number of distinct peers the controlled peer
	// exchanges candidates with over the observation window.
	Viewers int
	// CountryMix maps ISO country codes to population fractions; the
	// remainder (1 - sum) is spread uniformly over the rest of the
	// geo plan ("long tail").
	CountryMix map[string]float64
	// BogonRate is the fraction of observed addresses that are
	// unroutable (private / shared-NAT / reserved), produced by failed
	// NAT traversal. The paper measured 581/7740 ≈ 7.5% overall.
	BogonRate float64
	// BogonSplit partitions bogons into private:nat:reserved; the
	// paper's split is 543:33:5.
	BogonSplit [3]float64
}

// HuyaLike reproduces the Huya TV channel: 7,055 harvested addresses,
// 98% of public ones in China.
func HuyaLike() ChannelModel {
	return ChannelModel{
		Name:    "huya-live",
		Viewers: 7055,
		CountryMix: map[string]float64{
			"CN": 0.98,
		},
		BogonRate:  0.075,
		BogonSplit: [3]float64{543, 33, 5},
	}
}

// RTNewsLike reproduces the RT News channel: 685 harvested addresses
// across many countries, top-3 US 35% / GB 17% / CA 13%.
func RTNewsLike() ChannelModel {
	return ChannelModel{
		Name:    "rtnews-live",
		Viewers: 685,
		CountryMix: map[string]float64{
			"US": 0.35, "GB": 0.17, "CA": 0.13,
			"DE": 0.06, "FR": 0.05, "AU": 0.04, "IN": 0.03,
		},
		BogonRate:  0.075,
		BogonSplit: [3]float64{543, 33, 5},
	}
}

// Viewer is one generated population member.
type Viewer struct {
	Addr    netip.Addr
	Country string // "" for bogons
}

// Generate draws the channel's viewer addresses from the geo plan.
func (m ChannelModel) Generate(db *geoip.DB, seed int64) ([]Viewer, error) {
	rng := rand.New(rand.NewSource(seed))
	alloc := geoip.NewAllocator(db)
	countries := db.Countries()
	if len(countries) == 0 {
		return nil, fmt.Errorf("population: empty geo plan")
	}

	// Normalize the explicit mix and compute the long-tail share.
	var mixSum float64
	mixCountries := make([]string, 0, len(m.CountryMix))
	for c, f := range m.CountryMix {
		mixSum += f
		mixCountries = append(mixCountries, c)
	}
	sort.Strings(mixCountries)
	tail := 1 - mixSum
	if tail < 0 {
		return nil, fmt.Errorf("population: country mix sums to %v > 1", mixSum)
	}
	var tailCountries []string
	for _, c := range countries {
		if _, explicit := m.CountryMix[c]; !explicit {
			tailCountries = append(tailCountries, c)
		}
	}

	splitSum := m.BogonSplit[0] + m.BogonSplit[1] + m.BogonSplit[2]
	if splitSum == 0 {
		splitSum = 1
		m.BogonSplit = [3]float64{1, 0, 0}
	}

	out := make([]Viewer, 0, m.Viewers)
	for i := 0; i < m.Viewers; i++ {
		if rng.Float64() < m.BogonRate {
			out = append(out, m.bogonViewer(rng, alloc, splitSum))
			continue
		}
		country := pickCountry(rng, mixCountries, m.CountryMix, tail, tailCountries)
		ip, err := alloc.Alloc(country)
		if err != nil {
			return nil, fmt.Errorf("population: alloc %s: %w", country, err)
		}
		out = append(out, Viewer{Addr: ip, Country: country})
	}
	return out, nil
}

func (m ChannelModel) bogonViewer(rng *rand.Rand, alloc *geoip.Allocator, splitSum float64) Viewer {
	x := rng.Float64() * splitSum
	switch {
	case x < m.BogonSplit[0]:
		return Viewer{Addr: alloc.AllocPrivate()}
	case x < m.BogonSplit[0]+m.BogonSplit[1]:
		return Viewer{Addr: alloc.AllocSharedNAT()}
	default:
		// Reserved: link-local addresses, as failed traversal returns.
		return Viewer{Addr: netip.AddrFrom4([4]byte{169, 254, byte(rng.Intn(256)), byte(1 + rng.Intn(250))})}
	}
}

func pickCountry(rng *rand.Rand, mixCountries []string, mix map[string]float64, tail float64, tailCountries []string) string {
	x := rng.Float64()
	for _, c := range mixCountries {
		if x < mix[c] {
			return c
		}
		x -= mix[c]
	}
	if len(tailCountries) == 0 {
		return mixCountries[len(mixCountries)-1]
	}
	return tailCountries[rng.Intn(len(tailCountries))]
}

// HarvestPackets renders the viewers as the STUN traffic the controlled
// peer's capture would contain: an inbound binding request from each
// viewer (candidate exchange during ICE).
func HarvestPackets(viewers []Viewer, controlled netip.AddrPort, seed int64) []netsim.Packet {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]netsim.Packet, 0, len(viewers))
	for _, v := range viewers {
		src := netip.AddrPortFrom(v.Addr, uint16(30000+rng.Intn(20000)))
		pkts = append(pkts, netsim.Packet{
			Proto:   netsim.ProtoUDP,
			Dir:     netsim.DirIn,
			Src:     src,
			Dst:     controlled,
			Payload: stun.BindingRequest("wild:peer", 1).Encode(),
		})
	}
	return pkts
}

// HarvestSummary aggregates a harvested address list the way §IV-D
// reports it.
type HarvestSummary struct {
	Channel      string         `json:"channel"`
	Total        int            `json:"total"`
	Public       int            `json:"public"`
	Bogons       int            `json:"bogons"`
	Private      int            `json:"private"`
	SharedNAT    int            `json:"shared_nat"`
	Reserved     int            `json:"reserved"`
	ByCountry    map[string]int `json:"by_country"`
	Cities       int            `json:"cities"`
	Countries    int            `json:"countries"`
	TopCountries []CountryShare `json:"top_countries"`
}

// CountryShare is one row of the geo distribution.
type CountryShare struct {
	Country string  `json:"country"`
	Count   int     `json:"count"`
	Share   float64 `json:"share"` // of public addresses
}

// Summarize classifies and geolocates a harvested address list.
func Summarize(channel string, addrs []netip.Addr, db *geoip.DB) HarvestSummary {
	s := HarvestSummary{Channel: channel, Total: len(addrs), ByCountry: map[string]int{}}
	cities := map[string]bool{}
	for _, a := range addrs {
		rec := db.Lookup(a)
		switch rec.Class {
		case geoip.ClassPublic:
			s.Public++
			if rec.Country != "" {
				s.ByCountry[rec.Country]++
				cities[rec.Country+"/"+rec.City] = true
			}
		case geoip.ClassPrivate:
			s.Private++
		case geoip.ClassSharedNAT:
			s.SharedNAT++
		case geoip.ClassReserved:
			s.Reserved++
		}
	}
	s.Bogons = s.Private + s.SharedNAT + s.Reserved
	s.Cities = len(cities)
	s.Countries = len(s.ByCountry)
	for c, n := range s.ByCountry {
		s.TopCountries = append(s.TopCountries, CountryShare{Country: c, Count: n, Share: float64(n) / float64(max(s.Public, 1))})
	}
	sort.Slice(s.TopCountries, func(i, j int) bool {
		if s.TopCountries[i].Count != s.TopCountries[j].Count {
			return s.TopCountries[i].Count > s.TopCountries[j].Count
		}
		return s.TopCountries[i].Country < s.TopCountries[j].Country
	})
	return s
}

// Package geoip provides a synthetic IP address plan and a WHOIS-like
// lookup database for the simulated Internet used throughout pdnsec.
//
// The paper's in-the-wild IP-leak experiment classifies harvested peer
// addresses into public IPs (geolocated via IPInfo) and bogons (private
// RFC 1918, shared-address-space RFC 6598 "NAT" addresses, and reserved
// ranges). This package reproduces both halves: an Allocator hands out
// deterministic, country- and ISP-tagged "public" addresses to simulated
// viewers, and Classify/DB.Lookup reproduce the classification and
// geolocation steps performed by the paper's analysis scripts.
package geoip

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
)

// AddrClass is the coarse classification the paper applies to every
// harvested peer IP before geolocation.
type AddrClass int

// Address classes, mirroring the paper's taxonomy (§IV-D, "IP leak in the
// wild"): 7,159 public, 543 private, 33 NAT (shared address space), and 5
// reserved addresses.
const (
	ClassPublic AddrClass = iota + 1
	ClassPrivate
	ClassSharedNAT
	ClassReserved
)

// String returns the human-readable class name used in experiment output.
func (c AddrClass) String() string {
	switch c {
	case ClassPublic:
		return "public"
	case ClassPrivate:
		return "private"
	case ClassSharedNAT:
		return "nat"
	case ClassReserved:
		return "reserved"
	default:
		return fmt.Sprintf("AddrClass(%d)", int(c))
	}
}

// IsBogon reports whether the class is any of the non-public categories,
// matching the paper's use of "bogon" for private+NAT+reserved addresses.
func (c AddrClass) IsBogon() bool { return c != ClassPublic }

var (
	prefixPrivate = []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("172.16.0.0/12"),
		netip.MustParsePrefix("192.168.0.0/16"),
	}
	prefixSharedNAT = []netip.Prefix{
		netip.MustParsePrefix("100.64.0.0/10"), // RFC 6598 shared address space
	}
	prefixReserved = []netip.Prefix{
		netip.MustParsePrefix("0.0.0.0/8"),
		netip.MustParsePrefix("127.0.0.0/8"),
		netip.MustParsePrefix("169.254.0.0/16"),
		netip.MustParsePrefix("192.0.0.0/24"),
		netip.MustParsePrefix("192.0.2.0/24"),
		netip.MustParsePrefix("198.18.0.0/15"),
		netip.MustParsePrefix("198.51.100.0/24"),
		netip.MustParsePrefix("203.0.113.0/24"),
		netip.MustParsePrefix("224.0.0.0/4"),
		netip.MustParsePrefix("240.0.0.0/4"),
	}
)

// Classify assigns an address class to ip using the same range taxonomy as
// the paper's bogon filtering step.
func Classify(ip netip.Addr) AddrClass {
	ip = ip.Unmap()
	for _, p := range prefixPrivate {
		if p.Contains(ip) {
			return ClassPrivate
		}
	}
	for _, p := range prefixSharedNAT {
		if p.Contains(ip) {
			return ClassSharedNAT
		}
	}
	for _, p := range prefixReserved {
		if p.Contains(ip) {
			return ClassReserved
		}
	}
	return ClassPublic
}

// Record is the WHOIS-like answer returned by DB.Lookup, analogous to the
// IPInfo responses the paper queried for each harvested address.
type Record struct {
	Addr    netip.Addr `json:"addr"`
	Class   AddrClass  `json:"class"`
	Country string     `json:"country,omitempty"` // ISO code, e.g. "CN"
	City    string     `json:"city,omitempty"`
	ISP     string     `json:"isp,omitempty"`
}

// countryPlan is one country's slice of the synthetic address plan.
type countryPlan struct {
	code     string
	cities   []string
	isps     []string
	prefixes []netip.Prefix
}

// DB is a synthetic geolocation database. It owns the address plan: every
// public address an Allocator hands out is drawn from a prefix registered
// to exactly one country, so Lookup is exact for allocated addresses.
//
// The zero value is not usable; construct with NewDB.
type DB struct {
	mu        sync.RWMutex
	countries map[string]*countryPlan
	// ordered list of (prefix, country) for lookup
	ranges []rangeEntry
}

type rangeEntry struct {
	prefix  netip.Prefix
	country string
}

// NewDB returns a database preloaded with DefaultPlan.
func NewDB() *DB {
	db := &DB{countries: make(map[string]*countryPlan)}
	for _, c := range DefaultPlan() {
		db.Register(c)
	}
	return db
}

// NewEmptyDB returns a database with no registered countries, for tests
// that build a bespoke plan.
func NewEmptyDB() *DB {
	return &DB{countries: make(map[string]*countryPlan)}
}

// Country describes one country's synthetic address plan entry.
type Country struct {
	Code     string
	Cities   []string
	ISPs     []string
	Prefixes []string // CIDR, must be public space
}

// Register adds a country to the plan. Registering the same code twice
// replaces the previous entry's metadata and appends its prefixes.
func (db *DB) Register(c Country) {
	db.mu.Lock()
	defer db.mu.Unlock()
	plan, ok := db.countries[c.Code]
	if !ok {
		plan = &countryPlan{code: c.Code}
		db.countries[c.Code] = plan
	}
	plan.cities = append([]string(nil), c.Cities...)
	plan.isps = append([]string(nil), c.ISPs...)
	for _, s := range c.Prefixes {
		p := netip.MustParsePrefix(s)
		plan.prefixes = append(plan.prefixes, p)
		db.ranges = append(db.ranges, rangeEntry{prefix: p, country: c.Code})
	}
}

// Countries returns the registered country codes in sorted order.
func (db *DB) Countries() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.countries))
	for code := range db.countries {
		out = append(out, code)
	}
	sort.Strings(out)
	return out
}

// Lookup geolocates ip. Bogon addresses come back with only Class set,
// mirroring IPInfo's behaviour for unroutable space. Public addresses
// outside the plan return a public record with empty geodata.
func (db *DB) Lookup(ip netip.Addr) Record {
	rec := Record{Addr: ip, Class: Classify(ip)}
	if rec.Class != ClassPublic {
		return rec
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, re := range db.ranges {
		if re.prefix.Contains(ip) {
			plan := db.countries[re.country]
			rec.Country = plan.code
			// Derive stable city/ISP from the address bits so repeated
			// lookups of one address agree without storing per-IP state.
			h := addrHash(ip)
			if len(plan.cities) > 0 {
				rec.City = plan.cities[h%uint64(len(plan.cities))]
			}
			if len(plan.isps) > 0 {
				rec.ISP = plan.isps[(h/7)%uint64(len(plan.isps))]
			}
			return rec
		}
	}
	return rec
}

func addrHash(ip netip.Addr) uint64 {
	b := ip.As4()
	// FNV-1a over the 4 bytes; tiny and stable.
	var h uint64 = 14695981039346656037
	for _, x := range b {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}

// Allocator hands out unique synthetic addresses from the plan.
// It is safe for concurrent use.
type Allocator struct {
	db *DB

	mu   sync.Mutex
	next map[string]int // country -> allocation counter
}

// NewAllocator returns an allocator over db. Allocation is sequential
// per country, so it is deterministic without a seed.
func NewAllocator(db *DB) *Allocator {
	return &Allocator{
		db:   db,
		next: make(map[string]int),
	}
}

// Alloc returns the next unique public address for the given country code.
// It returns an error if the country is unknown or its space is exhausted.
func (a *Allocator) Alloc(country string) (netip.Addr, error) {
	a.db.mu.RLock()
	plan, ok := a.db.countries[country]
	a.db.mu.RUnlock()
	if !ok {
		return netip.Addr{}, fmt.Errorf("geoip: unknown country %q", country)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.next[country]
	a.next[country] = n + 1
	return nthAddr(plan.prefixes, n)
}

// AllocPrivate returns a unique RFC 1918 address, used for hosts placed
// behind simulated NAT boxes.
func (a *Allocator) AllocPrivate() netip.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.next["_private"]
	a.next["_private"] = n + 1
	addr, err := nthAddr(prefixPrivate[:1], n) // carve from 10.0.0.0/8
	if err != nil {
		// 10/8 has ~16.7M usable addresses; treat exhaustion as a bug.
		panic(fmt.Sprintf("geoip: private space exhausted: %v", err))
	}
	return addr
}

// AllocSharedNAT returns a unique RFC 6598 (100.64.0.0/10) address, used
// as the external face of carrier-grade NAT boxes.
func (a *Allocator) AllocSharedNAT() netip.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.next["_cgn"]
	a.next["_cgn"] = n + 1
	addr, err := nthAddr(prefixSharedNAT, n)
	if err != nil {
		panic(fmt.Sprintf("geoip: shared NAT space exhausted: %v", err))
	}
	return addr
}

// nthAddr maps a linear index onto a prefix list, skipping network (.0)
// and broadcast-looking (.255) final octets to keep addresses plausible.
func nthAddr(prefixes []netip.Prefix, n int) (netip.Addr, error) {
	idx := n
	for _, p := range prefixes {
		bits := 32 - p.Bits()
		size := 1 << bits
		// usable hosts per /24-equivalent chunk: skip .0 and .255
		usable := size - size/128
		if usable <= 0 {
			usable = size
		}
		if idx >= usable {
			idx -= usable
			continue
		}
		base := ipToU32(p.Addr())
		// walk addresses, skipping .0/.255 tails
		off := uint32(idx + idx/254*2 + 1)
		raw := base + off
		last := raw & 0xff
		if last == 0 {
			raw++
		} else if last == 255 {
			raw += 2
		}
		return u32ToIP(raw), nil
	}
	return netip.Addr{}, fmt.Errorf("geoip: address space exhausted (index %d)", n)
}

func ipToU32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func u32ToIP(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// DefaultPlan returns the address plan used by the experiments: a mix of
// countries matching the viewer distributions the paper reports for the
// RT News (US 35%, GB 17%, CA 13%, long tail) and Huya (98% CN) channels.
func DefaultPlan() []Country {
	return []Country{
		{Code: "CN", Cities: []string{"Beijing", "Shanghai", "Guangzhou", "Shenzhen", "Chengdu", "Wuhan", "Hangzhou", "Nanjing"},
			ISPs:     []string{"China Telecom", "China Unicom", "China Mobile"},
			Prefixes: []string{"36.96.0.0/13", "114.80.0.0/14", "183.0.0.0/13"}},
		{Code: "US", Cities: []string{"New York", "Los Angeles", "Chicago", "Houston", "Seattle", "Denver", "Miami", "Atlanta"},
			ISPs:     []string{"Comcast", "AT&T", "Verizon", "Charter"},
			Prefixes: []string{"23.112.0.0/13", "66.24.0.0/14", "98.160.0.0/14"}},
		{Code: "GB", Cities: []string{"London", "Manchester", "Birmingham", "Leeds", "Glasgow"},
			ISPs:     []string{"BT", "Sky", "Virgin Media"},
			Prefixes: []string{"81.128.0.0/14", "86.128.0.0/15"}},
		{Code: "CA", Cities: []string{"Toronto", "Vancouver", "Montreal", "Calgary"},
			ISPs:     []string{"Bell", "Rogers", "Telus"},
			Prefixes: []string{"99.224.0.0/14", "142.112.0.0/15"}},
		{Code: "DE", Cities: []string{"Berlin", "Munich", "Hamburg", "Cologne"},
			ISPs:     []string{"Deutsche Telekom", "Vodafone DE"},
			Prefixes: []string{"84.128.0.0/13"}},
		{Code: "FR", Cities: []string{"Paris", "Lyon", "Marseille", "Toulouse"},
			ISPs:     []string{"Orange", "Free", "SFR"},
			Prefixes: []string{"90.0.0.0/13"}},
		{Code: "RU", Cities: []string{"Moscow", "Saint Petersburg", "Novosibirsk"},
			ISPs:     []string{"Rostelecom", "MTS"},
			Prefixes: []string{"95.24.0.0/14"}},
		{Code: "BR", Cities: []string{"Sao Paulo", "Rio de Janeiro", "Brasilia"},
			ISPs:     []string{"Vivo", "Claro BR"},
			Prefixes: []string{"177.32.0.0/14"}},
		{Code: "IN", Cities: []string{"Mumbai", "Delhi", "Bangalore", "Chennai"},
			ISPs:     []string{"Jio", "Airtel"},
			Prefixes: []string{"106.192.0.0/13"}},
		{Code: "JP", Cities: []string{"Tokyo", "Osaka", "Nagoya"},
			ISPs:     []string{"NTT", "KDDI"},
			Prefixes: []string{"118.0.0.0/14"}},
		{Code: "AU", Cities: []string{"Sydney", "Melbourne", "Brisbane"},
			ISPs:     []string{"Telstra", "Optus"},
			Prefixes: []string{"120.16.0.0/14"}},
		{Code: "ES", Cities: []string{"Madrid", "Barcelona", "Valencia"},
			ISPs:     []string{"Telefonica", "Vodafone ES"},
			Prefixes: []string{"88.0.0.0/14"}},
		{Code: "IT", Cities: []string{"Rome", "Milan", "Naples"},
			ISPs:     []string{"TIM", "Fastweb"},
			Prefixes: []string{"79.0.0.0/14"}},
		{Code: "KR", Cities: []string{"Seoul", "Busan", "Incheon"},
			ISPs:     []string{"KT", "SK Broadband"},
			Prefixes: []string{"121.128.0.0/14"}},
		{Code: "MX", Cities: []string{"Mexico City", "Guadalajara"},
			ISPs:     []string{"Telmex", "Izzi"},
			Prefixes: []string{"187.128.0.0/14"}},
		{Code: "NL", Cities: []string{"Amsterdam", "Rotterdam"},
			ISPs:     []string{"KPN", "Ziggo"},
			Prefixes: []string{"84.24.0.0/15"}},
		{Code: "SE", Cities: []string{"Stockholm", "Gothenburg"},
			ISPs:     []string{"Telia", "Telenor SE"},
			Prefixes: []string{"78.64.0.0/15"}},
		{Code: "PL", Cities: []string{"Warsaw", "Krakow"},
			ISPs:     []string{"Orange PL", "Play"},
			Prefixes: []string{"83.0.0.0/15"}},
		{Code: "TR", Cities: []string{"Istanbul", "Ankara"},
			ISPs:     []string{"Turk Telekom", "Turkcell"},
			Prefixes: []string{"85.96.0.0/15"}},
		{Code: "AR", Cities: []string{"Buenos Aires", "Cordoba"},
			ISPs:     []string{"Telecom Argentina", "Telecentro"},
			Prefixes: []string{"181.0.0.0/15"}},
	}
}

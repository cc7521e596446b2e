package geoip

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		ip   string
		want AddrClass
	}{
		{"10.1.2.3", ClassPrivate},
		{"172.16.0.1", ClassPrivate},
		{"172.31.255.254", ClassPrivate},
		{"172.32.0.1", ClassPublic},
		{"192.168.1.1", ClassPrivate},
		{"100.64.0.1", ClassSharedNAT},
		{"100.127.255.254", ClassSharedNAT},
		{"100.128.0.1", ClassPublic},
		{"127.0.0.1", ClassReserved},
		{"169.254.10.10", ClassReserved},
		{"224.0.0.251", ClassReserved},
		{"240.1.1.1", ClassReserved},
		{"198.51.100.7", ClassReserved},
		{"8.8.8.8", ClassPublic},
		{"36.96.1.2", ClassPublic},
	}
	for _, tc := range cases {
		got := Classify(netip.MustParseAddr(tc.ip))
		if got != tc.want {
			t.Errorf("Classify(%s) = %v, want %v", tc.ip, got, tc.want)
		}
	}
}

func TestAddrClassString(t *testing.T) {
	if ClassPublic.String() != "public" || ClassPrivate.String() != "private" ||
		ClassSharedNAT.String() != "nat" || ClassReserved.String() != "reserved" {
		t.Fatalf("unexpected class names: %v %v %v %v", ClassPublic, ClassPrivate, ClassSharedNAT, ClassReserved)
	}
	if AddrClass(0).String() == "" {
		t.Error("zero class should still render")
	}
}

func TestIsBogon(t *testing.T) {
	if ClassPublic.IsBogon() {
		t.Error("public must not be bogon")
	}
	for _, c := range []AddrClass{ClassPrivate, ClassSharedNAT, ClassReserved} {
		if !c.IsBogon() {
			t.Errorf("%v must be bogon", c)
		}
	}
}

func TestAllocatorUniqueAndGeolocated(t *testing.T) {
	db := NewDB()
	alloc := NewAllocator(db)
	seen := make(map[netip.Addr]bool)
	for i := 0; i < 5000; i++ {
		ip, err := alloc.Alloc("CN")
		if err != nil {
			t.Fatalf("Alloc(CN) #%d: %v", i, err)
		}
		if seen[ip] {
			t.Fatalf("duplicate address %v at i=%d", ip, i)
		}
		seen[ip] = true
		rec := db.Lookup(ip)
		if rec.Class != ClassPublic {
			t.Fatalf("allocated %v classified %v, want public", ip, rec.Class)
		}
		if rec.Country != "CN" {
			t.Fatalf("Lookup(%v).Country = %q, want CN", ip, rec.Country)
		}
		if rec.City == "" || rec.ISP == "" {
			t.Fatalf("Lookup(%v) missing city/isp: %+v", ip, rec)
		}
	}
}

func TestAllocatorUnknownCountry(t *testing.T) {
	alloc := NewAllocator(NewDB())
	if _, err := alloc.Alloc("XX"); err == nil {
		t.Fatal("expected error for unknown country")
	}
}

func TestAllocPrivateAndSharedNAT(t *testing.T) {
	alloc := NewAllocator(NewDB())
	seen := make(map[netip.Addr]bool)
	for i := 0; i < 1000; i++ {
		p := alloc.AllocPrivate()
		if Classify(p) != ClassPrivate {
			t.Fatalf("AllocPrivate returned %v (class %v)", p, Classify(p))
		}
		if seen[p] {
			t.Fatalf("duplicate private %v", p)
		}
		seen[p] = true
		n := alloc.AllocSharedNAT()
		if Classify(n) != ClassSharedNAT {
			t.Fatalf("AllocSharedNAT returned %v (class %v)", n, Classify(n))
		}
		if seen[n] {
			t.Fatalf("duplicate cgn %v", n)
		}
		seen[n] = true
	}
}

func TestLookupStable(t *testing.T) {
	db := NewDB()
	alloc := NewAllocator(db)
	ip, err := alloc.Alloc("US")
	if err != nil {
		t.Fatal(err)
	}
	a, b := db.Lookup(ip), db.Lookup(ip)
	if a != b {
		t.Fatalf("Lookup not stable: %+v vs %+v", a, b)
	}
}

func TestLookupBogonHasNoGeo(t *testing.T) {
	db := NewDB()
	rec := db.Lookup(netip.MustParseAddr("192.168.4.4"))
	if rec.Class != ClassPrivate || rec.Country != "" || rec.ISP != "" {
		t.Fatalf("bogon lookup should have empty geodata: %+v", rec)
	}
}

func TestLookupUnplannedPublic(t *testing.T) {
	db := NewDB()
	rec := db.Lookup(netip.MustParseAddr("8.8.8.8"))
	if rec.Class != ClassPublic {
		t.Fatalf("8.8.8.8 should be public, got %v", rec.Class)
	}
	if rec.Country != "" {
		t.Fatalf("unplanned address should have no country, got %q", rec.Country)
	}
}

func TestCountriesSorted(t *testing.T) {
	db := NewDB()
	cs := db.Countries()
	if len(cs) < 10 {
		t.Fatalf("default plan too small: %d countries", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1] >= cs[i] {
			t.Fatalf("countries not sorted: %v", cs)
		}
	}
}

func TestRegisterCustomCountry(t *testing.T) {
	db := NewEmptyDB()
	db.Register(Country{Code: "ZZ", Cities: []string{"Zed"}, ISPs: []string{"ZedNet"}, Prefixes: []string{"203.1.0.0/16"}})
	alloc := NewAllocator(db)
	ip, err := alloc.Alloc("ZZ")
	if err != nil {
		t.Fatal(err)
	}
	rec := db.Lookup(ip)
	if rec.Country != "ZZ" || rec.City != "Zed" || rec.ISP != "ZedNet" {
		t.Fatalf("custom country lookup: %+v", rec)
	}
}

// Property: no allocated public address is ever classified as a bogon, and
// classification round-trips netip parsing.
func TestQuickAllocatedNeverBogon(t *testing.T) {
	db := NewDB()
	alloc := NewAllocator(db)
	countries := db.Countries()
	f := func(n uint16) bool {
		c := countries[int(n)%len(countries)]
		ip, err := alloc.Alloc(c)
		if err != nil {
			return false
		}
		return Classify(ip) == ClassPublic && db.Lookup(ip).Country == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: nthAddr never emits a .0 or .255 final octet.
func TestQuickNthAddrUsable(t *testing.T) {
	prefixes := []netip.Prefix{netip.MustParsePrefix("23.112.0.0/13")}
	f := func(n uint16) bool {
		ip, err := nthAddr(prefixes, int(n))
		if err != nil {
			return false
		}
		last := ip.As4()[3]
		return last != 0 && last != 255
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

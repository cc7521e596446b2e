package main

import "fmt"

// Example pins what `go run ./examples/quickstart` prints: the simulated
// network's addresses, both viewers' stats and the offload they add up to.
func Example() {
	if err := run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// PDN deployed: signaling=44.1.1.1:443 stun=44.1.1.1:3478 cdn=http://93.184.216.34:80
	// alice (23.112.0.1) finished: {SegmentsPlayed:8 FromCDN:8 FromP2P:0 CDNBytes:1048576 P2PDownBytes:0 P2PUpBytes:0 IMRejected:0 Neighbors:0}
	// bob   (81.128.0.1) finished: {SegmentsPlayed:8 FromCDN:2 FromP2P:6 CDNBytes:262144 P2PDownBytes:786432 P2PUpBytes:0 IMRejected:0 Neighbors:1}
	//
	// bob's segments: 2 from CDN (slow start), 6 over P2P
	// alice uploaded 786432 bytes to bob — her bandwidth, the customer's savings
	// CDN served 1311494 bytes total; without the PDN it would have served 2097926
}

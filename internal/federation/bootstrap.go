package federation

import (
	"context"
	"errors"
	"fmt"
	"net/netip"

	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// maxRedirectHops bounds a redirect chain. A consistent ring resolves
// in one hop; more than a couple means the membership view is churning
// under us and the next bootstrap candidate is a better bet.
const maxRedirectHops = 4

// JoinResult is a successful bootstrap: a connected client, its
// welcome, and the server that finally admitted it (the swarm owner).
type JoinResult struct {
	Client  *signal.Client
	Welcome signal.Welcome
	// Server is the address of the admitting server — what the client
	// should prefer on reconnect while the owner stays alive.
	Server netip.AddrPort
}

// Join bootstraps a peer into its swarm through any live server. It
// walks the peerstore's candidates best-first, follows redirects to
// the swarm's owner (refreshing the store from each redirect's server
// list), and records reachability so dead servers back off. A server
// that does not own the swarm always answers with a redirect, so the
// session that Join returns is held by the owner itself.
//
// setup, when non-nil, runs on each freshly dialed client before its
// join round trip — the place to install OnRelay/OnPeerGone handlers
// so no early push is dropped.
//
// This is also the crash-recovery path: when a swarm's owner dies, the
// ring rebalances server-side, the dead address fails fast here and is
// marked down, and the next candidate redirects (or admits) the peer
// under the new ownership — no pinned address, no strand.
func Join(ctx context.Context, host *netsim.Host, store *Peerstore, req signal.JoinRequest, setup func(*signal.Client)) (*JoinResult, error) {
	var lastErr error
	for _, addr := range store.Candidates() {
		res, err := joinVia(ctx, host, store, addr, req, setup)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("federation: peerstore has no servers")
	}
	return nil, fmt.Errorf("federation: bootstrap failed: %w", lastErr)
}

// joinVia attempts one bootstrap entry point, following its redirect
// chain.
func joinVia(ctx context.Context, host *netsim.Host, store *Peerstore, addr netip.AddrPort, req signal.JoinRequest, setup func(*signal.Client)) (*JoinResult, error) {
	for hop := 0; hop <= maxRedirectHops; hop++ {
		cli, err := signal.Dial(ctx, host, addr)
		if err != nil {
			store.MarkBad(addr)
			return nil, err
		}
		if setup != nil {
			setup(cli)
		}
		w, err := cli.Join(ctx, req)
		if err == nil {
			store.MarkGood(addr)
			return &JoinResult{Client: cli, Welcome: w, Server: addr}, nil
		}
		cli.Close()

		var rd *signal.RedirectError
		if !errors.As(err, &rd) {
			// The server answered — auth failures and the like are not
			// reachability problems — but this join is going nowhere.
			store.MarkGood(addr)
			return nil, err
		}
		store.MarkGood(addr)
		next, perr := netip.ParseAddrPort(rd.Redirect.Addr)
		if perr != nil {
			return nil, fmt.Errorf("federation: bad redirect address %q: %w", rd.Redirect.Addr, perr)
		}
		learned := make([]netip.AddrPort, 0, len(rd.Redirect.Servers))
		for _, s := range rd.Redirect.Servers {
			if ap, err := netip.ParseAddrPort(s); err == nil {
				learned = append(learned, ap)
			}
		}
		store.Update(learned)
		addr = next
	}
	return nil, fmt.Errorf("federation: redirect chain exceeded %d hops", maxRedirectHops)
}

package pdnclient

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/obs"
)

// cdnTimeout bounds one CDN GET, from the request's first byte to the
// body's last: it is the connection's deadline for that exchange.
const cdnTimeout = 10 * time.Second

// maxHTTPBody bounds one CDN response body.
const maxHTTPBody = 64 << 20

// cdnConn is a viewer's one keep-alive HTTP/1.1 connection to the CDN.
// A GET is one exchange driven on the calling goroutine: the request is
// written from a reused buffer and the response parsed by net/http's
// own ReadResponse from a reused reader, with no helper goroutine,
// channel or per-request context between them. Only the playback loop
// uses it (New sets dial).
type cdnConn struct {
	dial func(ctx context.Context, network, address string) (net.Conn, error)
	// origin is Config.CDNBase as New parsed it, once for the peer's
	// life; nil when that is no "http://host[:port]", failing every GET.
	origin *url.URL
	conn   net.Conn // nil until a GET dials, and again once it is dropped
	br     *bufio.Reader
	req    []byte
	// stop unhooks the close that ends conn as soon as the context it
	// was dialled under ends. Every GET on a connection comes from one
	// Run, so cancelling Run aborts a blocked read at once.
	stop func() bool
}

// get fetches the origin's path (a cdn URL helper's, with an empty
// base). A body of declared length that fits in buf is read into
// buf[:n] (buf may be nil); otherwise a new buffer is allocated. Any
// failure drops the connection, so the next GET dials a fresh one.
func (c *cdnConn) get(ctx context.Context, path string, buf []byte) ([]byte, error) {
	body, idle, err := c.fetch(ctx, path, buf)
	if !idle {
		c.close()
	}
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return nil, fmt.Errorf("pdnclient: CDN GET %s: %w", path, err)
	}
	return body, nil
}

// fetch runs one GET; idle reports whether the connection was left at a
// response boundary, ready for the next request.
func (c *cdnConn) fetch(ctx context.Context, path string, buf []byte) (body []byte, idle bool, err error) {
	if c.origin == nil {
		return nil, false, errors.New("CDNBase is no http origin")
	}
	// Traced fetches carry the active span across the HTTP hop; playlist
	// and manifest requests outside any span send no header.
	c.request(path, obs.ContextString(ctx))
	resp, err := c.roundTrip(ctx)
	if err != nil {
		return nil, false, err
	}
	// A response that asks to close ends the connection, as does one
	// whose body is left unread.
	idle = !resp.Close
	if resp.StatusCode != http.StatusOK {
		return nil, idle && resp.ContentLength == 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		// The Accept-Encoding line is only there to keep the request's
		// bytes; no CDN here compresses.
		return nil, false, fmt.Errorf("unsupported Content-Encoding %q", enc)
	}
	// The CDN may be the pollution attacker's: the body is bounded either
	// way, and a declared length is read into a buffer of that size
	// (io.ReadAll regrows to several times the body).
	if n := resp.ContentLength; n >= 0 && n <= maxHTTPBody {
		body = buf
		if int64(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return nil, false, err
		}
		return body, idle, nil
	}
	body, err = io.ReadAll(io.LimitReader(resp.Body, maxHTTPBody))
	// A body cut off at the bound leaves the rest unread.
	return body, idle && err == nil && len(body) < maxHTTPBody, err
}

// request spells the GET for path into c.req: the bytes net/http's
// client writes for it, in its order (request line, Host, its default
// User-Agent, the request's own Traceparent, the Accept-Encoding its
// transport adds). A host's upload counts them, so the report's
// overhead figures depend on them.
func (c *cdnConn) request(path, traceparent string) {
	b := append(c.req[:0], "GET "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.origin.Host...)
	b = append(b, "\r\nUser-Agent: Go-http-client/1.1\r\n"...)
	if traceparent != "" {
		b = append(b, "Traceparent: "...)
		b = append(b, traceparent...)
		b = append(b, "\r\n"...)
	}
	c.req = append(b, "Accept-Encoding: gzip\r\n\r\n"...)
}

// roundTrip sends c.req to the origin and reads the response's head. A
// request on a reused connection that fails before any response byte
// arrives (the CDN closed the idle connection) is sent once more on a
// fresh one, as net/http retries an idempotent request; nothing else is
// retried.
func (c *cdnConn) roundTrip(ctx context.Context) (*http.Response, error) {
	reused := c.conn != nil
	if !reused {
		if err := c.redial(ctx); err != nil {
			return nil, err
		}
	}
	resp, answered, err := c.exchange()
	if err != nil && reused && !answered && ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		if err = c.redial(ctx); err == nil {
			resp, _, err = c.exchange()
		}
	}
	return resp, err
}

// exchange writes c.req and reads the response's head; answered reports
// whether any of it arrived.
func (c *cdnConn) exchange() (resp *http.Response, answered bool, err error) {
	if err := c.conn.SetDeadline(time.Now().Add(cdnTimeout)); err != nil {
		return nil, false, err
	}
	if _, err := c.conn.Write(c.req); err != nil {
		return nil, false, err
	}
	if _, err := c.br.Peek(1); err != nil {
		return nil, false, err
	}
	resp, err = http.ReadResponse(c.br, nil)
	return resp, true, err
}

// redial replaces the connection with a fresh one to the origin.
func (c *cdnConn) redial(ctx context.Context) error {
	c.close()
	conn, err := c.dial(ctx, "tcp", net.JoinHostPort(c.origin.Hostname(), cmp.Or(c.origin.Port(), "80")))
	if err != nil {
		return err
	}
	c.conn = conn
	c.stop = context.AfterFunc(ctx, func() { conn.Close() })
	if c.br == nil {
		c.br = bufio.NewReader(conn)
	} else {
		c.br.Reset(conn)
	}
	return nil
}

// close drops the connection, if there is one.
func (c *cdnConn) close() {
	if c.conn == nil {
		return
	}
	c.stop()
	c.conn.Close()
	c.conn, c.stop = nil, nil
}

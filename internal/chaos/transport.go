package chaos

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"

	"reramsim/internal/retry"
)

// WrapTransport returns rt with the active fault plan layered on top; it
// returns rt unchanged (identity, no allocation) when chaos is off, so
// callers can wrap unconditionally. A nil rt wraps
// http.DefaultTransport, matching net/http's own convention.
func WrapTransport(rt http.RoundTripper) http.RoundTripper {
	e := active.Load()
	if e == nil {
		return rt
	}
	return &faultTransport{eng: e, base: rt}
}

// WrapClient returns a copy of c whose transport injects the active
// fault plan, or c itself when chaos is off. A nil c means a default
// client.
func WrapClient(c *http.Client) *http.Client {
	if !Active() {
		return c
	}
	var cc http.Client
	if c != nil {
		cc = *c
	}
	cc.Transport = WrapTransport(cc.Transport)
	return &cc
}

// faultTransport applies the plan's network faults around one RoundTrip.
type faultTransport struct {
	eng  *engine
	base http.RoundTripper
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	e, p := t.eng, t.eng.plan
	site := req.URL.Path

	if e.roll(site+"|latency", p.LatencyP) {
		obsLatency.Inc()
		retry.Sleep(req.Context(), p.Latency)
	}
	if e.roll(site+"|drop", p.DropP) {
		obsDrops.Inc()
		return nil, fmt.Errorf("chaos: request to %s dropped before send", site)
	}
	// Bit-flip corruption targets /complete uploads: the bytes arrive,
	// the request parses, but the payload inside is damaged — exactly the
	// fault a receiver's checksum verification exists to catch.
	if p.FlipP > 0 && req.Body != nil && strings.HasSuffix(site, "/complete") &&
		e.roll(site+"|flip", p.FlipP) {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("chaos: buffering body to corrupt it: %w", err)
		}
		if n := len(body); n > 0 {
			// Flip one bit in the back half, where the base64 segment blob
			// lives rather than the JSON envelope's field names.
			pos := n/2 + int(e.seq.Add(1))%((n+1)/2)
			body[pos] ^= 1 << (e.seq.Add(1) % 8)
			obsFlips.Inc()
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
	}

	base := t.base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	// A reset after delivery: the peer processed the request but the
	// client never learns — the classic at-least-once duplicate source.
	if e.roll(site+"|reset", p.ResetP) {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		obsResets.Inc()
		return nil, fmt.Errorf("chaos: connection to %s reset after delivery", site)
	}
	if e.roll(site+"|truncate", p.TruncateP) {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		cut := len(body) / 2
		obsTruncations.Inc()
		resp.Body = io.NopCloser(bytes.NewReader(body[:cut]))
		resp.ContentLength = int64(cut)
		resp.Header.Del("Content-Length")
	}
	return resp, nil
}

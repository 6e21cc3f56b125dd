package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reramsim/internal/experiments"
	"reramsim/internal/memsys"
)

// servedOrders returns the request order of each session: the first n
// non-oracle scheme x workload cells of a fresh permutation per session,
// all drawn from one generator seeded by seed. Request latencies depend on
// the order (the first request for a scheme builds it and prices its
// ops), so a run pools several orders.
func servedOrders(seed int64, n int) func() []experiments.SimPair {
	var all []experiments.SimPair
	for _, s := range experiments.SchemeNames() {
		if strings.HasPrefix(s, "ora-") {
			continue
		}
		for _, w := range experiments.Workloads() {
			all = append(all, experiments.SimPair{Scheme: s, Workload: w})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	return func() []experiments.SimPair {
		keys := make([]experiments.SimPair, 0, len(all))
		for _, i := range rng.Perm(len(all)) {
			keys = append(keys, all[i])
		}
		return keys[:min(n, len(keys))]
	}
}

// request is one /v1/solve round trip.
type request struct {
	key     string
	body    []byte
	latency time.Duration // from send to the last body byte
	err     error         // transport error or non-200 status
}

// segmentKeys is how many requests a served session sends between two
// probe groups. A whole session (~8 s) drifts with the host more than the
// probes on either side of it show, so it pauses after every segment: the
// clients finish their requests in flight, the idle host is probed, and
// they go on with the same reramd.
const segmentKeys = 22

// served measures the service unit. Set-up is reramd's spawn-to-ready
// time. Each session is a fresh reramd that answers every key once for
// b.jobs closed-loop clients, in segments bracketed by the host probes
// that normalize their requests; sessions run back to back for the
// measured window. reramd has no -seed flag, so the seed reaches it only
// as the request order.
func (b *bench) served(ctx context.Context) (*section, error) {
	daemonBin := filepath.Join(b.bin, "reramd")
	args := b.daemonArgs()
	nextOrder := servedOrders(b.seed, b.size.sessionKeys)
	expect, err := b.reference(ctx, b.size.accesses, memsys.DefaultConfig().Seed, "none")
	if err != nil {
		return nil, err
	}

	br := &bracket{threads: b.jobs}
	setups, err := b.repeatSetup(ctx, br, func(int) (time.Duration, error) {
		d, ready, err := startDaemon(ctx, daemonBin, args...)
		if err != nil {
			return 0, err
		}
		_, err = d.stop()
		return ready, err
	})
	if err != nil {
		return nil, fmt.Errorf("served_solve set-up: %w", err)
	}

	var reqs []request
	var segments, reqTimes []timing // reqTimes[i] times reqs[i]
	var rss []float64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < b.window; n++ {
		d, _, err := startDaemon(ctx, daemonBin, args...)
		if err != nil {
			return nil, err
		}
		keys := nextOrder()
		for len(keys) > 0 && ctx.Err() == nil {
			seg := keys[:min(segmentKeys, len(keys))]
			keys = keys[len(seg):]
			var got []request
			t, _ := br.time(func() (time.Duration, error) {
				var wall time.Duration
				got, wall = solveAll(ctx, d.addr, seg, b.jobs)
				return wall, nil // request errors are checked below
			})
			for _, r := range got {
				reqTimes = append(reqTimes, timing{raw: r.latency, probes: t.probes})
			}
			reqs = append(reqs, got...)
			segments = append(segments, t)
		}
		rssKB, err := d.stop()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		if err != nil {
			return nil, err
		}
		rss = append(rss, float64(rssKB)/1024)
	}

	// The first 200 body of each key is its canonical answer: every
	// session must return it byte for byte, and it must pass the checks.
	canon := make(map[string][]byte)
	for _, r := range reqs {
		if _, ok := canon[r.key]; !ok && r.err == nil {
			canon[r.key] = r.body
		}
	}
	canonErr := checkServed(canon, expect)
	sec := &section{Name: "served_solve", Samples: len(reqs)}
	var lat []timing
	for i, r := range reqs {
		err := r.err
		if err == nil && !bytes.Equal(r.body, canon[r.key]) {
			err = fmt.Errorf("%s: body differs between sessions", r.key)
		}
		if err == nil {
			err = canonErr[r.key]
		}
		sec.tally.record(err)
		if err == nil {
			lat = append(lat, reqTimes[i])
		}
	}
	sec.addE2E(lat, len(lat), segments, setups, rss)
	return sec, nil
}

func (b *bench) daemonArgs() []string {
	return []string{"-addr", "127.0.0.1:0", "-accesses", strconv.Itoa(b.size.accesses), "-jobs", strconv.Itoa(b.jobs)}
}

// solveAll asks for every key once from `clients` closed-loop clients,
// each with its own X-Client-ID, and returns the requests in key order
// with the session's wall time.
func solveAll(ctx context.Context, addr string, keys []experiments.SimPair, clients int) ([]request, time.Duration) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer hc.CloseIdleConnections()
	reqs := make([]request, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(keys); i = int(next.Add(1)) - 1 {
				reqs[i] = solve(ctx, hc, addr, id, keys[i])
			}
		}(fmt.Sprintf("bench-%d", c))
	}
	wg.Wait()
	return reqs, time.Since(start)
}

func solve(ctx context.Context, hc *http.Client, addr, clientID string, key experiments.SimPair) request {
	r := request{key: cellKey(key)}
	payload, _ := json.Marshal(map[string]string{"scheme": key.Scheme, "workload": key.Workload}) // cannot fail on strings
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/solve", bytes.NewReader(payload))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", clientID)
	start := time.Now()
	resp, err := hc.Do(req)
	if err == nil {
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: HTTP %d: %s", r.key, resp.StatusCode, bytes.TrimSpace(r.body))
		}
	}
	r.latency, r.err = time.Since(start), err
	return r
}

// checkServed validates each key's canonical body: it names its cell,
// cells of G equal the in-process reference, and the orderings hold on
// every workload served under all three headline schemes. The result maps
// each failing key to its problem.
func checkServed(bodies map[string][]byte, expect map[string][32]byte) map[string]error {
	bad := make(map[string]error)
	results := make(map[string]*memsys.Result)
	workloads := make(map[string]bool)
	for key, body := range bodies {
		var doc struct {
			Scheme, Workload string
			Result           json.RawMessage
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			bad[key] = fmt.Errorf("%s: %w", key, err)
			continue
		}
		if doc.Scheme+"/"+doc.Workload != key {
			bad[key] = fmt.Errorf("%s: answered for %s/%s", key, doc.Scheme, doc.Workload)
			continue
		}
		if _, inGrid := expect[key]; inGrid {
			r, err := checkCell(key, doc.Result, expect)
			if err != nil {
				bad[key] = err
				continue
			}
			results[key] = r
		} else {
			var r memsys.Result
			if err := json.Unmarshal(doc.Result, &r); err != nil {
				bad[key] = fmt.Errorf("%s: %w", key, err)
				continue
			}
			results[key] = &r
		}
		workloads[doc.Workload] = true
	}
	for w := range workloads {
		if err := checkOrderings(results, []string{w}, false); err != nil {
			for _, s := range gridSchemes {
				bad[s+"/"+w] = errors.Join(bad[s+"/"+w], err)
			}
		}
	}
	return bad
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// stubBackend is a controllable Backend double: per-call latency and a
// barrier that holds solves open.
type stubBackend struct {
	solveDelay time.Duration
	// solveGate, when non-nil, blocks every solve until closed (or the
	// solve's ctx dies) — holds work in flight for drain/saturation tests.
	solveGate chan struct{}
	// solveStarted, when non-nil, receives one value per solve as it
	// begins.
	solveStarted chan struct{}
}

func (b *stubBackend) Validate(scheme, workload string) error {
	if scheme == "nope" || workload == "nope" {
		return fmt.Errorf("unknown name %q", "nope")
	}
	return nil
}

func (b *stubBackend) Solve(ctx context.Context, scheme, workload string) (json.RawMessage, error) {
	if b.solveStarted != nil {
		b.solveStarted <- struct{}{}
	}
	if b.solveGate != nil {
		select {
		case <-b.solveGate:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	if b.solveDelay > 0 {
		t := time.NewTimer(b.solveDelay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	return json.Marshal(map[string]string{"scheme": scheme, "workload": workload})
}

func startTestServer(t *testing.T, b Backend, mod func(*Options)) *Server {
	t.Helper()
	opts := Options{
		Addr:    "127.0.0.1:0",
		Backend: b,
		// A generous bucket so only tests that target admission hit it.
		admission: admissionConfig{ratePerSec: 10000, burst: 10000},
		log:       io.Discard,
	}
	if mod != nil {
		mod(&opts)
	}
	s, err := Start(opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	s.SetReady(true)
	t.Cleanup(func() { s.Close() })
	return s
}

func postJSON(t *testing.T, url, client string, body any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return postBody(t, url, client, blob)
}

func postBody(t *testing.T, url, client string, blob []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Client-ID", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out
}

// solveAsync posts one solve from its own goroutine. The channel yields
// the response status once the request finishes, or 0 on a transport
// error.
func solveAsync(url string) <-chan int {
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(`{"scheme":"A","workload":"w"}`))
		if err != nil {
			status <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	return status
}

func TestSolveOK(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, nil)
	resp, body := postJSON(t, "http://"+s.Addr()+"/v1/solve", "",
		map[string]any{"scheme": "A", "workload": "w"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out solveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Scheme != "A" || out.Workload != "w" {
		t.Fatalf("echo mismatch: %+v", out)
	}
}

func TestValidationRejects(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, nil)
	resp, body := postJSON(t, "http://"+s.Addr()+"/v1/solve", "",
		map[string]any{"scheme": "nope", "workload": "w"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
	}
	var apiErr apiError
	if err := json.Unmarshal(body, &apiErr); err != nil {
		t.Fatalf("error body is not the JSON contract: %v (%s)", err, body)
	}
	if !strings.Contains(apiErr.Error, "unknown name") {
		t.Fatalf("error message %q lost the backend detail", apiErr.Error)
	}
	if resp2, body2 := postJSON(t, "http://"+s.Addr()+"/v1/solve", "", "not an object"); resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status = %d, want 400 (%s)", resp2.StatusCode, body2)
	}
	// The removed solver field is an unknown field like any other.
	resp3, body3 := postJSON(t, "http://"+s.Addr()+"/v1/solve", "",
		map[string]any{"scheme": "A", "workload": "w", "solver": "exact"})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("solver field: status = %d, want 400 (%s)", resp3.StatusCode, body3)
	}
	if err := json.Unmarshal(body3, &apiErr); err != nil || !strings.Contains(apiErr.Error, `"solver"`) {
		t.Fatalf("solver field: error %q (%v) does not name the field", apiErr.Error, err)
	}
	// Decoding is strict past the first value too: trailing bytes and a
	// second JSON value are both malformed bodies.
	for _, raw := range []string{
		`{"scheme":"A","workload":"w"} trailing-garbage`,
		`{"scheme":"A","workload":"w"}{"scheme":"A","workload":"w"}`,
	} {
		if resp, body := postBody(t, "http://"+s.Addr()+"/v1/solve", "", []byte(raw)); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status = %d, want 400 (%s)", raw, resp.StatusCode, body)
		}
	}
}

// TestAdmissionShed hammers one client past its token bucket: the
// over-quota client must see 429 with a Retry-After hint while a
// different, in-quota client keeps completing — per-client fairness,
// not global shedding.
func TestAdmissionShed(t *testing.T) {
	b := &stubBackend{}
	s := startTestServer(t, b, func(o *Options) {
		o.admission = admissionConfig{ratePerSec: 0.001, burst: 3}
	})
	url := "http://" + s.Addr() + "/v1/solve"
	req := map[string]any{"scheme": "A", "workload": "w"}

	var ok, shed int
	var lastShed *http.Response
	for i := 0; i < 10; i++ {
		resp, _ := postJSON(t, url, "greedy", req)
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			lastShed = resp
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if ok != 3 || shed != 7 {
		t.Fatalf("greedy client: ok=%d shed=%d, want 3/7 (burst=3)", ok, shed)
	}
	if ra := lastShed.Header.Get("Retry-After"); ra == "" {
		t.Fatalf("429 carried no Retry-After header")
	}
	// The quota is per client: a polite client is untouched by the
	// greedy one's shedding.
	resp, body := postJSON(t, url, "polite", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-quota client got %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestAdmissionForgetsFullBuckets: client IDs are chosen by clients,
// so rotating them must not grow the bucket map without bound. 50
// rounds of 1,000 one-request IDs, 3 s apart (at the default 50/s every
// bucket refills within the gap), leave at most 4,000 buckets. A
// drained bucket is kept through the sweeps: its client stays shed.
func TestAdmissionForgetsFullBuckets(t *testing.T) {
	a := newAdmission(admissionConfig{})
	now := time.Unix(1e9, 0)
	for round := 0; round < 50; round++ {
		for i := 0; i <= int(a.cfg.burst); i++ {
			a.allow("greedy", now)
		}
		for i := 0; i < 1000; i++ {
			if ok, _ := a.allow(fmt.Sprintf("rotating-%d-%d", round, i), now); !ok {
				t.Fatalf("round %d: fresh client %d shed", round, i)
			}
		}
		if ok, _ := a.allow("greedy", now); ok {
			t.Fatalf("round %d: a drained bucket was forgotten, its client admitted", round)
		}
		now = now.Add(3 * time.Second)
	}
	a.mu.Lock()
	n := len(a.buckets)
	a.mu.Unlock()
	if n > 4000 {
		t.Fatalf("%d buckets after 50,000 one-request clients, want <= 4,000", n)
	}
}

// TestRetryAfterSchedule pins the 429 hint a client reads on its
// consecutive sheds under the fixed policy: writeError rounds allow's
// hint up to whole seconds, so sheds 1-3 read "1" for every client
// whatever the jitter, and hints spread only from the fourth (1 or 2).
func TestRetryAfterSchedule(t *testing.T) {
	a := newAdmission(admissionConfig{})
	now := time.Unix(1e9, 0)
	want := []string{"1", "1", "1", "1,2"} // the Retry-After values seen per shed
	seen := make([]map[string]bool, len(want))
	for i := range seen {
		seen[i] = make(map[string]bool)
	}
	for c := 0; c < 2000; c++ {
		client := fmt.Sprintf("client-%d", c)
		for i := 0; i < int(a.cfg.burst); i++ {
			if ok, _ := a.allow(client, now); !ok {
				t.Fatalf("%s: request %d shed inside the burst", client, i)
			}
		}
		for shed := range want {
			ok, hint := a.allow(client, now)
			if ok {
				t.Fatalf("%s: drained bucket admitted shed %d", client, shed+1)
			}
			rec := httptest.NewRecorder()
			writeError(rec, http.StatusTooManyRequests, hint, "shed")
			seen[shed][rec.Header().Get("Retry-After")] = true
		}
	}
	for shed, vals := range seen {
		var got []string
		for v := range vals {
			got = append(got, v)
		}
		sort.Strings(got)
		if g := strings.Join(got, ","); g != want[shed] {
			t.Errorf("shed %d: Retry-After values %s, want %s", shed+1, g, want[shed])
		}
	}
}

// TestSaturation503 fills every compute slot and the whole wait queue;
// the next request must shed immediately with 503 + Retry-After.
func TestSaturation503(t *testing.T) {
	gate := make(chan struct{})
	b := &stubBackend{solveGate: gate, solveStarted: make(chan struct{}, 2)}
	s := startTestServer(t, b, func(o *Options) {
		o.admission = admissionConfig{
			maxInflight: 1, maxQueue: 1, queueWait: 30 * time.Second,
			ratePerSec: 10000, burst: 10000,
		}
	})
	solveURL := "http://" + s.Addr() + "/v1/solve"

	// Occupy the only slot with a gated solve...
	running := solveAsync(solveURL)
	<-b.solveStarted // slot held

	// ...park one solve in the queue (it will wait on QueueWait)...
	queued := solveAsync(solveURL)
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queuedNow() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never parked")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// ...and the next one must bounce with 503 + Retry-After.
	resp, body := postJSON(t, solveURL, "", map[string]any{"scheme": "A", "workload": "w"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated: status = %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 carried no Retry-After header")
	}
	close(gate)
	for name, ch := range map[string]<-chan int{"running": running, "queued": queued} {
		if st := <-ch; st != http.StatusOK {
			t.Errorf("%s solve after the gate opened: status %d, want 200", name, st)
		}
	}
}

// TestPanicIsolation: a panicking handler answers 500 and the server
// keeps serving — /healthz and a normal solve still work.
func TestPanicIsolation(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, func(o *Options) {
		o.TestPanicWorkload = "boom"
	})
	url := "http://" + s.Addr() + "/v1/solve"
	resp, body := postJSON(t, url, "", map[string]any{"scheme": "A", "workload": "boom"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic request: status = %d (%s), want 500", resp.StatusCode, body)
	}
	var apiErr apiError
	if err := json.Unmarshal(body, &apiErr); err != nil || !strings.Contains(apiErr.Error, "panic") {
		t.Fatalf("500 body should carry the panic contract, got %s", body)
	}
	if resp, _ := get(t, "http://"+s.Addr()+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d, want 200", resp.StatusCode)
	}
	if resp, body := postJSON(t, url, "", map[string]any{"scheme": "A", "workload": "w"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after panic: %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestDeadline504: a solve slower than its deadline maps to 504 with
// the typed deadline cause in the message.
func TestDeadline504(t *testing.T) {
	s := startTestServer(t, &stubBackend{solveDelay: 5 * time.Second}, nil)
	resp, body := postJSON(t, "http://"+s.Addr()+"/v1/solve", "",
		map[string]any{"scheme": "A", "workload": "w", "deadline_ms": 30})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("504 body does not explain the deadline: %s", body)
	}
}

// TestDrainUnderLoad: with a solve in flight, Drain refuses new
// compute (503 with the fixed Retry-After), waits for the solve, which
// answers 200, and finishes cleanly; /readyz reports draining
// throughout.
func TestDrainUnderLoad(t *testing.T) {
	gate := make(chan struct{})
	b := &stubBackend{solveGate: gate, solveStarted: make(chan struct{}, 1)}
	s := startTestServer(t, b, nil)
	base := "http://" + s.Addr()

	inflight := solveAsync(base + "/v1/solve")
	<-b.solveStarted

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(drainCtx) }()

	// Drain begins: readyz flips (after the drain gate, so compute is
	// refused from then on), and new compute is refused with 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp, _ := get(t, base+"/readyz"); resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never answered 503 during drain")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ := postJSON(t, base+"/v1/solve", "", map[string]any{"scheme": "A", "workload": "w"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new compute during drain: %d, want 503", resp.StatusCode)
	}
	// Half the default 5 s queue wait, rounded up to whole seconds.
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("drain 503 Retry-After = %q, want 3", ra)
	}

	select {
	case err := <-drained:
		t.Fatalf("drain returned before the in-flight solve finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate) // let the in-flight solve finish
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed after the solve finished")
	}
	// The in-flight solve ran to its answer, not to cancellation.
	if st := <-inflight; st != http.StatusOK {
		t.Fatalf("in-flight solve across the drain: status %d, want 200", st)
	}
}

// TestDrainForcesStragglers: a solve slower than the drain budget is
// cancelled via the base context (it observes errDraining and answers
// 503) and the drain still completes.
func TestDrainForcesStragglers(t *testing.T) {
	gate := make(chan struct{}) // never closed: the solve only ends by cancellation
	b := &stubBackend{solveGate: gate, solveStarted: make(chan struct{}, 1)}
	s := startTestServer(t, b, nil)

	straggler := solveAsync("http://" + s.Addr() + "/v1/solve")
	<-b.solveStarted

	drainCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("forced drain should still complete cleanly once work stops, got %v", err)
	}
	if st := <-straggler; st != http.StatusServiceUnavailable {
		t.Fatalf("solve cut off by the forced drain: status %d, want 503", st)
	}
}

// BenchmarkServedSolve measures full-stack served-request latency:
// HTTP round-trip through admission, deadline setup and the backend.
func BenchmarkServedSolve(b *testing.B) {
	s, err := Start(Options{
		Addr:      "127.0.0.1:0",
		Backend:   &stubBackend{},
		admission: admissionConfig{ratePerSec: 1e9, burst: 1e9},
		log:       io.Discard,
	})
	if err != nil {
		b.Fatalf("Start: %v", err)
	}
	defer s.Close()
	s.SetReady(true)
	url := "http://" + s.Addr() + "/v1/solve"
	blob := []byte(`{"scheme":"A","workload":"w"}`)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
		if err != nil {
			b.Fatalf("POST: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reramsim/internal/experiments"
	"reramsim/internal/jobs"
	"reramsim/internal/obs"
)

// stubBackend is a controllable Backend double: per-call latency, a
// barrier that holds sweeps open, and exact execution counters — the
// instrument the dedup-exactness and drain tests read.
type stubBackend struct {
	solveDelay time.Duration
	sweepDelay time.Duration
	// sweepGate, when non-nil, blocks every sweep until closed (or the
	// sweep's ctx dies) — holds work in flight for drain/saturation tests.
	sweepGate chan struct{}
	// sweepStarted, when non-nil, receives one value per sweep execution
	// as it begins.
	sweepStarted chan struct{}

	solves atomic.Int64
	sweeps atomic.Int64
}

func (b *stubBackend) Validate(scheme, workload string) error {
	if scheme == "nope" || workload == "nope" {
		return fmt.Errorf("unknown name %q", "nope")
	}
	return nil
}

func (b *stubBackend) Digest(pairs []experiments.SimPair) (string, error) {
	h := sha256.New()
	for _, p := range pairs {
		fmt.Fprintf(h, "%s\x00%s\x00", p.Scheme, p.Workload)
	}
	return "stub-" + hex.EncodeToString(h.Sum(nil)), nil
}

func (b *stubBackend) Solve(ctx context.Context, scheme, workload string) (json.RawMessage, error) {
	b.solves.Add(1)
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

func (b *stubBackend) Sweep(ctx context.Context, digest string, pairs []experiments.SimPair,
	onProgress func(func() jobs.Progress)) (*jobs.Report, error) {
	b.sweeps.Add(1)
	if b.sweepStarted != nil {
		b.sweepStarted <- struct{}{}
	}
	if onProgress != nil {
		total := len(pairs)
		onProgress(func() jobs.Progress { return jobs.Progress{Total: total} })
	}
	if b.sweepGate != nil {
		select {
		case <-b.sweepGate:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	if b.sweepDelay > 0 {
		t := time.NewTimer(b.sweepDelay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	rep := &jobs.Report{Done: make(map[string][]byte, len(pairs))}
	for _, p := range pairs {
		key := p.Scheme + "/" + p.Workload
		rep.Done[key] = []byte(fmt.Sprintf(`{"cell":%q}`, key))
		rep.Executed = append(rep.Executed, key)
	}
	return rep, nil
}

func startTestServer(t *testing.T, b Backend, mod func(*Options)) *Server {
	t.Helper()
	opts := Options{
		Addr:    "127.0.0.1:0",
		Backend: b,
		Admission: AdmissionConfig{
			// Generous defaults so only tests that target admission hit it.
			RatePerSec: 10000, Burst: 10000,
		},
		DefaultDeadline: 10 * time.Second,
		Log:             io.Discard,
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
}

// TestAdmissionShed hammers one client past its token bucket: the
// over-quota client must see 429 with a Retry-After hint while a
// different, in-quota client keeps completing — per-client fairness,
// not global shedding.
func TestAdmissionShed(t *testing.T) {
	b := &stubBackend{}
	s := startTestServer(t, b, func(o *Options) {
		o.Admission = AdmissionConfig{RatePerSec: 0.001, Burst: 3}
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

// TestSaturation503 fills every compute slot and the whole wait queue;
// the next request must shed immediately with 503 + Retry-After.
func TestSaturation503(t *testing.T) {
	gate := make(chan struct{})
	b := &stubBackend{sweepGate: gate, sweepStarted: make(chan struct{}, 8)}
	s := startTestServer(t, b, func(o *Options) {
		o.Admission = AdmissionConfig{
			MaxInflight: 1, MaxQueue: 1, QueueWait: 30 * time.Second,
			RatePerSec: 10000, Burst: 10000,
		}
	})
	solveURL := "http://" + s.Addr() + "/v1/solve"
	sweepURL := "http://" + s.Addr() + "/v1/sweep"

	// Occupy the only slot with a gated sweep job...
	resp, body := postJSON(t, sweepURL, "", map[string]any{
		"schemes": []string{"A"}, "workloads": []string{"w"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d (%s)", resp.StatusCode, body)
	}
	<-b.sweepStarted // slot held

	// ...park one solve in the queue (it will wait on QueueWait)...
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		postJSON(t, solveURL, "", map[string]any{"scheme": "A", "workload": "w"})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queuedNow() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never parked")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// ...and the next one must bounce with 503 + Retry-After.
	resp, body = postJSON(t, solveURL, "", map[string]any{"scheme": "A", "workload": "w"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated: status = %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 carried no Retry-After header")
	}
	close(gate)
	<-queued
}

// TestSweepDedupExactness is the core dedup contract: 32 concurrent
// identical sweep requests execute the backend exactly once, every
// response carries the same result, and exactly 31 report deduped.
func TestSweepDedupExactness(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	b := &stubBackend{sweepDelay: 50 * time.Millisecond}
	s := startTestServer(t, b, nil)
	url := "http://" + s.Addr() + "/v1/sweep"
	req := map[string]any{
		"schemes":   []string{"A", "B"},
		"workloads": []string{"w1", "w2"},
		"wait":      true,
	}

	const n = 32
	docs := make([]jobDoc, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, url, fmt.Sprintf("client-%d", i), req)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d (%s)", i, resp.StatusCode, body)
				return
			}
			if err := json.Unmarshal(body, &docs[i]); err != nil {
				errs <- fmt.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := b.sweeps.Load(); got != 1 {
		t.Fatalf("backend executed %d sweeps for %d identical requests, want exactly 1", got, n)
	}
	deduped := 0
	for i, d := range docs {
		if d.State != JobDone {
			t.Fatalf("request %d: state %q, want done", i, d.State)
		}
		if len(d.Cells) != 4 {
			t.Fatalf("request %d: %d cells, want 4", i, len(d.Cells))
		}
		if d.JobID != docs[0].JobID {
			t.Fatalf("request %d: job id %q != %q — requests split across jobs", i, d.JobID, docs[0].JobID)
		}
		if d.Deduped {
			deduped++
		}
	}
	if deduped != n-1 {
		t.Fatalf("%d responses report deduped, want exactly %d", deduped, n-1)
	}
	if docs[0].Clients != n {
		t.Fatalf("job counted %d clients, want %d", docs[0].Clients, n)
	}
	// The metric series agrees with the registry-exact count.
	_, metrics := get(t, "http://"+s.Addr()+"/metrics")
	if !strings.Contains(string(metrics), "serve_deduped 31") {
		t.Fatalf("metrics lack serve_deduped 31:\n%s", grepLines(string(metrics), "serve_"))
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

// TestDrainUnderLoad: with a sweep in flight, Drain refuses new
// compute (503), waits for the job, and finishes cleanly; /readyz
// reports draining throughout.
func TestDrainUnderLoad(t *testing.T) {
	gate := make(chan struct{})
	b := &stubBackend{sweepGate: gate, sweepStarted: make(chan struct{}, 1)}
	s := startTestServer(t, b, nil)
	base := "http://" + s.Addr()

	resp, body := postJSON(t, base+"/v1/sweep", "", map[string]any{
		"schemes": []string{"A"}, "workloads": []string{"w"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, body)
	}
	var doc jobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("submit doc: %v", err)
	}
	<-b.sweepStarted

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(drainCtx) }()

	// Drain begins: readyz flips, new compute is refused with 503.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := get(t, base+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, base+"/v1/solve", "", map[string]any{"scheme": "A", "workload": "w"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new compute during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 carried no Retry-After")
	}

	select {
	case err := <-drained:
		t.Fatalf("drain returned before in-flight job finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate) // let the in-flight sweep finish
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed after the job finished")
	}
	// The in-flight job ran to a terminal state, not cancellation.
	j := s.reg.get(doc.JobID)
	if j == nil {
		t.Fatalf("job %s evicted during drain", doc.JobID)
	}
	if got := j.doc(false).State; got != JobDone {
		t.Fatalf("in-flight job state after drain = %q, want done", got)
	}
}

// TestDrainForcesStragglers: a job slower than the drain budget is
// cancelled via the base context (it observes errDraining) and the
// drain still completes.
func TestDrainForcesStragglers(t *testing.T) {
	gate := make(chan struct{}) // never closed: the sweep only ends by cancellation
	b := &stubBackend{sweepGate: gate, sweepStarted: make(chan struct{}, 1)}
	s := startTestServer(t, b, nil)

	if resp, body := postJSON(t, "http://"+s.Addr()+"/v1/sweep", "", map[string]any{
		"schemes": []string{"A"}, "workloads": []string{"w"}}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, body)
	}
	<-b.sweepStarted

	drainCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("forced drain should still complete cleanly once work stops, got %v", err)
	}
}

// TestJobsEndpoints covers the read side: list, get, wait and the SSE
// stream shape.
func TestJobsEndpoints(t *testing.T) {
	b := &stubBackend{sweepDelay: 30 * time.Millisecond}
	s := startTestServer(t, b, nil)
	base := "http://" + s.Addr()

	resp, body := postJSON(t, base+"/v1/sweep", "", map[string]any{
		"schemes": []string{"A"}, "workloads": []string{"w"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, body)
	}
	var doc jobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("submit doc: %v", err)
	}

	resp, body = get(t, base+"/v1/jobs/"+doc.JobID+"?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job wait: %d (%s)", resp.StatusCode, body)
	}
	var done jobDoc
	if err := json.Unmarshal(body, &done); err != nil {
		t.Fatalf("job doc: %v", err)
	}
	if done.State != JobDone || len(done.Cells) != 1 {
		t.Fatalf("waited job = state %q cells %d, want done/1", done.State, len(done.Cells))
	}

	resp, body = get(t, base+"/v1/jobs")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), doc.JobID) {
		t.Fatalf("jobs list (%d) missing %s: %s", resp.StatusCode, doc.JobID, body)
	}
	if resp, _ := get(t, base+"/v1/jobs/unknown"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}

	// SSE: a finished job's stream ends immediately with a result event.
	resp, body = get(t, base+"/v1/jobs/"+doc.JobID+"?stream=1")
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type %q", ct)
	}
	if !strings.Contains(string(body), "event: result") {
		t.Fatalf("stream lacked a result event:\n%s", body)
	}
}

// grepLines filters text to lines containing sub (test failure output).
func grepLines(text, sub string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, sub) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// BenchmarkServedSolve measures full-stack served-request latency:
// HTTP round-trip through admission, deadline setup and the backend.
func BenchmarkServedSolve(b *testing.B) {
	s, err := Start(Options{
		Addr:            "127.0.0.1:0",
		Backend:         &stubBackend{},
		Admission:       AdmissionConfig{RatePerSec: 1e9, Burst: 1e9},
		DefaultDeadline: 10 * time.Second,
		Log:             io.Discard,
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

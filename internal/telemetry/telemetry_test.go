package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"reramsim/internal/jobs"
	"reramsim/internal/obs"
)

func startServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	s, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestEndpoints covers the health/readiness lifecycle, the metrics
// exposition, the progress snapshot and the pprof fold-in.
func TestEndpoints(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	s := startServer(t, Options{})
	base := "http://" + s.Addr()

	if code, body := get(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, _ := get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before SetReady = %d, want 503", code)
	}
	s.SetReady(true)
	if code, _ := get(t, base+"/readyz"); code != 200 {
		t.Errorf("/readyz after SetReady = %d, want 200", code)
	}

	obs.C("telemetry.test.counter").Add(7)
	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d, want 200", code)
	}
	if !strings.Contains(body, "telemetry_test_counter 7") {
		t.Errorf("/metrics missing counter line:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE telemetry_test_counter counter") {
		t.Errorf("/metrics missing TYPE header")
	}
	if !strings.Contains(body, "runtime_goroutines") {
		t.Errorf("/metrics missing runtime.* series")
	}

	// No engine attached yet: /progress is a 404 with an explanation.
	if code, _ := get(t, base+"/progress"); code != http.StatusNotFound {
		t.Errorf("/progress without engine = %d, want 404", code)
	}

	if code, body := get(t, base+"/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d, want 200 with profile index", code)
	}

	if code, body := get(t, base+"/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q, want endpoint listing", code, body)
	}
}

// TestProgressJSONAndSSE runs a real engine grid behind the server and
// checks both the JSON snapshot and the SSE stream: the stream must
// deliver at least one update showing the completed count advancing.
func TestProgressJSONAndSSE(t *testing.T) {
	s := startServer(t, Options{StreamInterval: 5 * time.Millisecond})
	base := "http://" + s.Addr()

	eng, err := jobs.Open(jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetProgress(eng.Progress)

	gate := make(chan struct{})
	var cells []jobs.Cell
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("cell-%d", i)
		cells = append(cells, jobs.Cell{Key: key, Run: func(ctx context.Context) ([]byte, error) {
			<-gate // cells finish one per gate tick
			return []byte(key), nil
		}})
	}

	// Open the SSE stream before any cell finishes.
	req, err := http.NewRequest("GET", base+"/progress?stream=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}

	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(context.Background(), cells)
		done <- err
	}()
	go func() {
		for i := 0; i < len(cells); i++ {
			gate <- struct{}{}
			time.Sleep(20 * time.Millisecond) // let the epoch tick between completions
		}
	}()

	// Read SSE events until the completed count reaches 4.
	var seen []int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var p jobs.Progress
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
			t.Fatalf("bad SSE payload: %v\n%s", err, line)
		}
		if p.Total == 0 {
			continue // stream opened before Run registered the grid
		}
		if p.Total != 4 {
			t.Fatalf("SSE Total = %d, want 4", p.Total)
		}
		seen = append(seen, p.Completed)
		if p.Completed == 4 {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(seen) < 2 {
		t.Fatalf("SSE stream delivered %d events, want at least 2 (got %v)", len(seen), seen)
	}
	advanced := false
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Errorf("completed count went backwards: %v", seen)
		}
		if seen[i] > seen[i-1] {
			advanced = true
		}
	}
	if !advanced {
		t.Errorf("completed count never advanced across SSE updates: %v", seen)
	}

	// JSON snapshot after the run.
	code, body := get(t, base+"/progress")
	if code != 200 {
		t.Fatalf("/progress = %d, want 200", code)
	}
	var p jobs.Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("bad /progress JSON: %v\n%s", err, body)
	}
	if p.Completed != 4 || p.Fraction != 1 {
		t.Errorf("final progress = %+v, want 4 completed", p)
	}
}

// TestScrapeDuringSweepRace hammers /metrics from several clients while
// an engine grid runs with instrumented cells mutating metrics — the
// -race gate for the lock-free scrape path against live sweeps.
func TestScrapeDuringSweepRace(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	s := startServer(t, Options{})
	base := "http://" + s.Addr()

	eng, err := jobs.Open(jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetProgress(eng.Progress)

	var cells []jobs.Cell
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("cell-%d", i)
		cells = append(cells, jobs.Cell{Key: key, Run: func(ctx context.Context) ([]byte, error) {
			// Instrumented cell body: counters and histograms, as a
			// real simulation produces.
			h := obs.H("telemetry.race.lat_ns", obs.LatencyBoundsNS())
			for j := 0; j < 200; j++ {
				obs.C("telemetry.race.ops").Inc()
				h.Observe(float64(j))
			}
			return []byte(key), nil
		}})
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				resp, err = http.Get(base + "/progress")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	rep, err := eng.Run(context.Background(), cells)
	close(stop)
	scrapers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("grid incomplete: %+v", rep.Quarantined)
	}
	// The scrape totals must still be exact once the sweep settles.
	code, body := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(body, fmt.Sprintf("telemetry_race_ops %d", 24*200)) {
		t.Errorf("final scrape missing exact counter total:\n%.400s", body)
	}
}

// TestShutdownWithOpenSSEStream: Shutdown must not hang on an open SSE
// connection — the closing channel ends streams promptly.
func TestShutdownWithOpenSSEStream(t *testing.T) {
	s, err := Start(Options{Addr: "127.0.0.1:0", StreamInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := jobs.Open(jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetProgress(eng.Progress)

	resp, err := http.Get("http://" + s.Addr() + "/progress?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil { // first event arrived
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with open stream: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("shutdown took %v, want prompt exit", took)
	}
	// The stream must have ended.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil && !strings.Contains(err.Error(), "EOF") {
		t.Logf("stream end: %v (acceptable)", err)
	}
}

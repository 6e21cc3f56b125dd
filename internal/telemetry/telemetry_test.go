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

func startServer(t *testing.T, routes ...Route) *Server {
	t.Helper()
	s, err := Start("127.0.0.1:0", routes...)
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

// startStack starts a CLI stack's server (with its /progress route)
// polling SSE streams every interval.
func startStack(t *testing.T, interval time.Duration) (*Stack, string) {
	t.Helper()
	st := &Stack{streamInterval: interval}
	if err := st.serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return st, "http://" + st.server.Addr()
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
// exposition, the pprof fold-in, a host route and the index listing
// exactly the routes the server answers.
func TestEndpoints(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	s := startServer(t, Route{"POST /v1/echo", "echo a word", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "echo")
	}})
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

	c := obs.C("telemetry.test.counter")
	want := c.Value() + 7 // the registry is process-global: count from here
	c.Add(7)
	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d, want 200", code)
	}
	if !strings.Contains(body, fmt.Sprintf("telemetry_test_counter %d\n", want)) {
		t.Errorf("/metrics missing counter line:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE telemetry_test_counter counter") {
		t.Errorf("/metrics missing TYPE header")
	}
	if !strings.Contains(body, "runtime_goroutines") {
		t.Errorf("/metrics missing runtime.* series")
	}

	// /progress is a CLI route (see Stack), not a built-in one.
	if code, _ := get(t, base+"/progress"); code != http.StatusNotFound {
		t.Errorf("/progress on a bare server = %d, want 404", code)
	}

	if code, body := get(t, base+"/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d, want 200 with profile index", code)
	}

	resp, err := http.Post(base+"/v1/echo", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("host route = %d, want 200", resp.StatusCode)
	}

	code, body = get(t, base+"/")
	if code != 200 {
		t.Fatalf("index = %d, want 200", code)
	}
	for _, want := range []string{"POST /v1/echo", "/metrics", "/healthz", "/readyz", "/debug/pprof/"} {
		if !strings.Contains(body, want) {
			t.Errorf("index lacks %s:\n%s", want, body)
		}
	}
	if strings.Contains(body, "/progress") {
		t.Errorf("index lists /progress, which this server does not serve:\n%s", body)
	}
}

// TestProgressJSONAndSSE runs a real engine grid behind the server and
// checks both the JSON snapshot and the SSE stream: the stream must
// deliver at least one update showing the completed count advancing.
func TestProgressJSONAndSSE(t *testing.T) {
	st, base := startStack(t, 5*time.Millisecond)

	// No engine attached yet: /progress is a 404 with an explanation.
	if code, body := get(t, base+"/progress"); code != http.StatusNotFound || !strings.Contains(body, "engine") {
		t.Errorf("/progress without engine = %d %q, want 404", code, body)
	}
	if _, body := get(t, base+"/"); !strings.Contains(body, "/progress") {
		t.Errorf("index lacks /progress:\n%s", body)
	}

	eng, err := jobs.Open(jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.SetProgress(eng.Progress)

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
	st, base := startStack(t, 250*time.Millisecond)

	eng, err := jobs.Open(jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.SetProgress(eng.Progress)
	wantOps := obs.C("telemetry.race.ops").Value() + 24*200

	var cells []jobs.Cell
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("cell-%d", i)
		cells = append(cells, jobs.Cell{Key: key, Run: func(ctx context.Context) ([]byte, error) {
			// Instrumented cell body: counters and a high-water gauge,
			// as the solver and the worker pool produce.
			g := obs.G("telemetry.race.max")
			for j := 0; j < 200; j++ {
				obs.C("telemetry.race.ops").Inc()
				g.SetMax(float64(j))
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
	// The scrapers' transport may hold a connection it dialed but never
	// sent a request on; net/http's Shutdown waits 5 s for such a
	// connection before treating it as idle, which would trip the
	// cleanup's 5 s shutdown bound. Close it from the client side.
	http.DefaultClient.CloseIdleConnections()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("grid incomplete: %+v", rep.Quarantined)
	}
	// The scrape totals must still be exact once the sweep settles.
	code, body := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(body, fmt.Sprintf("telemetry_race_ops %d\n", wantOps)) {
		t.Errorf("final scrape missing exact counter total:\n%.400s", body)
	}
	if !strings.Contains(body, "telemetry_race_max 199\n") {
		t.Errorf("final scrape missing the gauge's high-water mark:\n%.400s", body)
	}
}

// TestShutdownWithOpenSSEStream: Shutdown must not hang on an open SSE
// connection — the closing channel ends streams promptly.
func TestShutdownWithOpenSSEStream(t *testing.T) {
	st, base := startStack(t, 10*time.Millisecond)
	eng, err := jobs.Open(jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.SetProgress(eng.Progress)

	resp, err := http.Get(base + "/progress?stream=1")
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
	if err := st.server.Shutdown(ctx); err != nil {
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

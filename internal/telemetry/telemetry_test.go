package telemetry

import (
	"context"
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
}

// TestScrapeDuringSweepRace hammers /metrics from several clients while
// an engine grid runs with instrumented cells mutating metrics — the
// -race gate for the lock-free scrape path against live sweeps.
func TestScrapeDuringSweepRace(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	base := "http://" + startServer(t).Addr()

	eng, err := jobs.Open(jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
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

// TestShutdownEndsOpenRequests: Shutdown must not wait out a request
// that runs until its context ends, as /debug/pprof/profile and /trace
// do: cancelling the base context ends it at once.
func TestShutdownEndsOpenRequests(t *testing.T) {
	s := startServer(t, Route{"/block", "wait for shutdown", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}})
	// Get returns once the header has arrived, with the handler running.
	resp, err := http.Get("http://" + s.Addr() + "/block")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with an open request: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("shutdown took %v, want prompt exit", took)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Errorf("open request did not end cleanly: %v", err)
	}
}

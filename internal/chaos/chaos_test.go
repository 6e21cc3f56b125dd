package chaos

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"reramsim/internal/atomicio"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=42,latency=20ms,latency-p=0.3,drop=0.1,reset=0.2,truncate=0.15,flip=0.05,enospc=2")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 42, Latency: 20 * time.Millisecond, LatencyP: 0.3,
		DropP: 0.1, ResetP: 0.2, TruncateP: 0.15, FlipP: 0.05, ENOSPC: 2}
	if p != want {
		t.Fatalf("ParsePlan = %+v, want %+v", p, want)
	}
	if !p.Enabled() {
		t.Fatal("full plan reports disabled")
	}
	// Round trip through String.
	p2, err := ParsePlan(p.String())
	if err != nil || p2 != p {
		t.Fatalf("String round trip: %+v (%v), want %+v", p2, err, p)
	}
}

func TestParsePlanEmptyAndDefaults(t *testing.T) {
	p, err := ParsePlan("")
	if err != nil || p.Enabled() {
		t.Fatalf("empty plan = %+v (%v), want disabled zero plan", p, err)
	}
	// latency without latency-p means always.
	p, err = ParsePlan("seed=1,latency=5ms")
	if err != nil || p.LatencyP != 1 {
		t.Fatalf("latency-only plan = %+v (%v), want LatencyP=1", p, err)
	}
}

func TestParsePlanRejectsBadInput(t *testing.T) {
	for _, s := range []string{
		"bogus",            // not key=value
		"seed=x",           // bad int
		"drop=1.5",         // out of range
		"drop=-0.1",        // negative
		"latency=nope",     // bad duration
		"latency-p=0.5",    // probability without a latency
		"enospc=-1",        // negative count
		"tyop=0.1",         // unknown key
		"seed=1,reset=two", // bad float mid-plan
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted bad input", s)
		}
	}
}

func TestRollDeterministicAndSeeded(t *testing.T) {
	a := &engine{plan: Plan{Seed: 7}}
	b := &engine{plan: Plan{Seed: 7}}
	var seqA, seqB []bool
	for i := 0; i < 200; i++ {
		seqA = append(seqA, a.roll("/dist/v1/complete|drop", 0.3))
		seqB = append(seqB, b.roll("/dist/v1/complete|drop", 0.3))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("same seed diverged at roll %d", i)
		}
	}
	// A different seed should not reproduce the identical decision stream.
	c := &engine{plan: Plan{Seed: 8}}
	same := true
	for i := 0; i < 200; i++ {
		if c.roll("/dist/v1/complete|drop", 0.3) != seqA[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical decision streams")
	}
	// Rate sanity: p=0.3 over 200 rolls lands well inside (10, 110).
	hits := 0
	for _, v := range seqA {
		if v {
			hits++
		}
	}
	if hits <= 10 || hits >= 110 {
		t.Fatalf("p=0.3 fired %d/200 times", hits)
	}
}

func TestInstallUninstall(t *testing.T) {
	defer Uninstall()
	if Active() {
		t.Fatal("chaos active before install")
	}
	Install(Plan{Seed: 1, DropP: 0.5})
	if !Active() || Installed().DropP != 0.5 {
		t.Fatal("install did not take")
	}
	if atomicio.HookEnabled() {
		t.Fatal("plan without enospc installed a write hook")
	}
	Install(Plan{Seed: 1, ENOSPC: 1})
	if !atomicio.HookEnabled() {
		t.Fatal("enospc plan did not install the write hook")
	}
	Install(Plan{}) // disabled plan uninstalls
	if Active() || atomicio.HookEnabled() {
		t.Fatal("disabled plan left chaos active")
	}
}

func TestENOSPCEpisodesExhaust(t *testing.T) {
	defer Uninstall()
	Install(Plan{Seed: 3, ENOSPC: 2})
	dir := t.TempDir()
	failures := 0
	for i := 0; i < 5; i++ {
		err := atomicio.WriteFileSync(dir, "seg.jrn", []byte("x"), 0o644)
		if err != nil {
			if !errors.Is(err, syscall.ENOSPC) || !atomicio.IsDiskFull(err) {
				t.Fatalf("injected failure %v is not a typed ENOSPC", err)
			}
			failures++
		}
	}
	if failures != 2 {
		t.Fatalf("%d fsync failures, want exactly the 2 planned episodes", failures)
	}
	// Unsynced writes are untouched by the fsync fault.
	if err := atomicio.WriteFile(dir, "plain.bin", []byte("x"), 0o644); err != nil {
		t.Fatalf("non-sync write failed under enospc plan: %v", err)
	}
}

func TestWrapTransportIdentityWhenOff(t *testing.T) {
	base := http.DefaultTransport
	if got := WrapTransport(base); got != base {
		t.Fatal("WrapTransport is not the identity with chaos off")
	}
	c := &http.Client{}
	if got := WrapClient(c); got != c {
		t.Fatal("WrapClient is not the identity with chaos off")
	}
}

// TestTransportFaults drives each network fault against a live server.
func TestTransportFaults(t *testing.T) {
	defer Uninstall()
	var got []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			got, _ = io.ReadAll(r.Body)
		}
		io.WriteString(w, "0123456789abcdef")
	}))
	defer srv.Close()

	// Drop: the request never arrives.
	Install(Plan{Seed: 1, DropP: 1})
	client := WrapClient(srv.Client())
	if _, err := client.Get(srv.URL + "/dist/v1/lease"); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("drop=1: err = %v, want a chaos drop", err)
	}

	// Reset: the server processed it, the client sees an error.
	Install(Plan{Seed: 1, ResetP: 1})
	client = WrapClient(srv.Client())
	got = nil
	_, err := client.Post(srv.URL+"/dist/v1/complete", "application/json", bytes.NewReader([]byte(`{"k":1}`)))
	if err == nil || !strings.Contains(err.Error(), "reset after delivery") {
		t.Fatalf("reset=1: err = %v, want a post-delivery reset", err)
	}
	if string(got) != `{"k":1}` {
		t.Fatalf("reset=1: server saw %q, want the full request (reset is after delivery)", got)
	}

	// Truncate: half the response body survives.
	Install(Plan{Seed: 1, TruncateP: 1})
	client = WrapClient(srv.Client())
	resp, err := client.Get(srv.URL + "/dist/v1/grid")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != 8 {
		t.Fatalf("truncate=1: body %q (%d bytes), want 8 of 16", body, len(body))
	}

	// Flip: only /complete uploads are corrupted, in place, same length.
	Install(Plan{Seed: 1, FlipP: 1})
	client = WrapClient(srv.Client())
	payload := bytes.Repeat([]byte{'A'}, 64)
	got = nil
	if _, err := client.Post(srv.URL+"/dist/v1/complete", "application/octet-stream", bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 64 {
		t.Fatalf("flip=1: server saw %d bytes, want 64", len(got))
	}
	diff := 0
	for i := range got {
		if got[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("flip=1: %d bytes differ, want exactly 1", diff)
	}
	// Non-complete posts pass untouched.
	got = nil
	if _, err := client.Post(srv.URL+"/dist/v1/renew", "application/octet-stream", bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("flip=1 corrupted a non-complete request")
	}
}

// TestDisabledGuardsAllocFree pins the disabled-path cost of every hot
// guard at zero allocations.
func TestDisabledGuardsAllocFree(t *testing.T) {
	Uninstall()
	base := http.DefaultTransport
	if avg := testing.AllocsPerRun(200, func() {
		if Active() {
			t.Fatal("chaos unexpectedly active")
		}
		if WrapTransport(base) != base {
			t.Fatal("not identity")
		}
		if atomicio.HookEnabled() {
			t.Fatal("hook unexpectedly enabled")
		}
	}); avg != 0 {
		t.Fatalf("disabled chaos guards allocate %.1f/op, want 0", avg)
	}
}

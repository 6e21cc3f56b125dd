package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestReliabilitySweep runs the registered fault comparison on a small
// access budget: every requested scheme must produce a row with the
// profile's injection actually engaged, and the baseline must retry
// more than the regulated scheme (the sweep's reason to exist).
func TestReliabilitySweep(t *testing.T) {
	s := suite()
	rep, err := s.ReliabilitySweep(context.Background(), "margin", "mcf_m",
		[]string{"Base", "UDRVR+PR"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted {
		t.Fatal("un-cancelled sweep reported Aborted")
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rep.Rows))
	}
	base, udrvr := rep.Rows[0], rep.Rows[1]
	if base.Rel.VerifyFailures == 0 {
		t.Error("margin profile produced no verify failures on the baseline")
	}
	if udrvr.Rel.WriteRetries >= base.Rel.WriteRetries {
		t.Errorf("UDRVR+PR retries %d not below baseline %d",
			udrvr.Rel.WriteRetries, base.Rel.WriteRetries)
	}
	if out := rep.String(); !strings.Contains(out, "Base") || !strings.Contains(out, "UDRVR+PR") {
		t.Errorf("report rendering missing scheme rows:\n%s", out)
	}

	// The sweep must not have polluted the fault-free result cache.
	r, err := s.Sim("Base", "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	if r.Reliability != nil {
		t.Error("cached fault-free result carries a Reliability block")
	}
}

// TestReliabilitySweepCancelled pins the partial-results contract: a
// cancelled context aborts the sweep between runs without an error,
// returning whatever completed and setting Aborted. The suite is fresh:
// fault cells cache like any other cell, so the shared suite would
// serve the rows TestReliabilitySweep computed.
func TestReliabilitySweepCancelled(t *testing.T) {
	s, err := NewSuite(800)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := s.ReliabilitySweep(ctx, "margin", "mcf_m", []string{"Base"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Aborted {
		t.Error("cancelled sweep did not report Aborted")
	}
	if len(rep.Rows) != 0 {
		t.Errorf("cancelled-before-start sweep returned %d rows", len(rep.Rows))
	}
	if out := rep.String(); !strings.Contains(out, "partial") {
		t.Errorf("aborted report does not mention partial results:\n%s", out)
	}
}

// TestSuiteContextCancelsSim: a Suite with a cancelled context refuses
// to start new simulations (cached results stay available).
func TestSuiteContextCancelsSim(t *testing.T) {
	s, err := NewSuite(400)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.SetContext(ctx)
	if _, err := s.Sim("Base", "mil_m"); err != nil {
		t.Fatalf("live context blocked a simulation: %v", err)
	}
	cancel()
	if _, err := s.Sim("Base", "mil_m"); err != nil {
		t.Fatalf("cancellation evicted a cached result: %v", err)
	}
	if _, err := s.Sim("Base", "ast_m"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled for a new simulation, got %v", err)
	}
}

package experiments

import (
	"context"
	"fmt"
	"strings"

	"reramsim/internal/memsys"
)

// ReliabilityRow is one scheme's fault-handling outcome in a sweep.
type ReliabilityRow struct {
	Scheme string
	IPC    float64
	Rel    memsys.Reliability
}

// ReliabilityReport collects a fault-injection sweep. When the context
// is cancelled mid-sweep, Aborted is true and Rows holds the schemes
// that completed — partial results are returned, not discarded.
type ReliabilityReport struct {
	Profile  string
	Workload string
	Rows     []ReliabilityRow
	Aborted  bool
}

// ReliabilitySweep simulates workload under each scheme with the given
// fault profile active and reports the per-scheme retry/degradation
// outcome. Its cells differ from the suite's fault-free ones only in
// the memory config's fault profile, so they run and cache as cells of
// their own. ctx stops a running simulation as well as the ones not yet
// started; a cancelled sweep returns the completed rows with Aborted
// set rather than an error.
func (s *Suite) ReliabilitySweep(ctx context.Context, profile, workload string, schemes []string) (*ReliabilityReport, error) {
	rep := &ReliabilityReport{Profile: profile, Workload: workload}
	mem := s.MemCfg
	mem.FaultProfile = profile
	cs := cells(s.Cfg, mem, crossPairs(schemes, []string{workload}))
	if err := s.grid(ctx, cs); err != nil {
		if ctx.Err() == nil {
			return nil, err
		}
		rep.Aborted = true
	}
	for _, c := range cs {
		r, err := s.sim(ctx, c) // a cache hit, or an error for a stopped cell
		if err != nil {
			continue
		}
		row := ReliabilityRow{Scheme: c.Scheme, IPC: r.IPC}
		if r.Reliability != nil {
			row.Rel = *r.Reliability
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// String renders the report as an aligned text table.
func (rep *ReliabilityReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Reliability sweep: profile=%s workload=%s\n", rep.Profile, rep.Workload)
	fmt.Fprintf(&sb, "%-14s %8s %9s %9s %7s %7s %7s %6s\n",
		"scheme", "IPC", "retries", "verfails", "stuck", "retired", "uncorr", "maxesc")
	for _, row := range rep.Rows {
		fmt.Fprintf(&sb, "%-14s %8.3f %9d %9d %7d %7d %7d %6d\n",
			row.Scheme, row.IPC, row.Rel.WriteRetries, row.Rel.VerifyFailures,
			row.Rel.StuckCells, row.Rel.RetiredLines, row.Rel.Uncorrectable,
			row.Rel.MaxEscalation)
	}
	if rep.Aborted {
		sb.WriteString("(sweep aborted; partial results)\n")
	}
	return sb.String()
}

// ExtFault is the registered reliability experiment: the margin fault
// profile on the most write-intensive workload, comparing how much
// write-verify work the baseline's IR-drop margins cost against the
// regulated schemes. The paper's thesis shows up as strictly fewer
// retries and retired lines under UDRVR+PR than under Base.
func (s *Suite) ExtFault() (string, error) {
	rep, err := s.ReliabilitySweep(s.Context(), "margin", "mcf_m",
		[]string{"Base", "DRVR+PR", "UDRVR+PR"})
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

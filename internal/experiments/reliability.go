package experiments

import (
	"context"
	"fmt"
	"strings"

	"reramsim/internal/memsys"
	"reramsim/internal/trace"
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
// outcome. It bypasses the Suite's result cache: those entries are
// fault-free, and the sweep must not pollute them. ctx stops a running
// simulation as well as the ones not yet started; a cancelled sweep
// returns the completed rows with Aborted set rather than an error.
func (s *Suite) ReliabilitySweep(ctx context.Context, profile, workload string, schemes []string) (*ReliabilityReport, error) {
	rep := &ReliabilityReport{Profile: profile, Workload: workload}
	mc := s.MemCfg
	mc.FaultProfile = profile
	b, err := trace.ByName(workload)
	if err != nil {
		return nil, err
	}
	for _, name := range schemes {
		if ctx.Err() != nil {
			rep.Aborted = true
			return rep, nil
		}
		sc, err := s.Scheme(name)
		if err != nil {
			return nil, err
		}
		r, err := memsys.SimulateContext(ctx, sc, b, mc)
		if err != nil {
			if ctx.Err() != nil {
				rep.Aborted = true
				return rep, nil
			}
			return nil, fmt.Errorf("experiments: reliability %s on %s: %w", name, workload, err)
		}
		row := ReliabilityRow{Scheme: name, IPC: r.IPC}
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

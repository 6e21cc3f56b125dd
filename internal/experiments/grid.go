package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"reramsim/internal/jobs"
	"reramsim/internal/memsys"
	"reramsim/internal/xpoint"
)

// gridDigestVersion versions the digest document below. Bump it when
// the document's shape (or the meaning of a field) changes, so journals
// written under the old interpretation are not replayed.
const gridDigestVersion = 1

// GridDigest derives the schema-versioned digest pinning a run journal
// to this suite's full sweep configuration: the calibrated array
// config, the memory-system config and the requested grid. Any change
// to any of them yields a different digest, so a -resume against the
// journal of a different sweep cold-starts instead of serving stale
// payloads.
func (s *Suite) GridDigest(pairs []SimPair) (string, error) {
	doc := struct {
		Version int
		Array   xpoint.Config
		Mem     memsys.Config // Heartbeat carries json:"-": hooks never enter the digest
		Pairs   []SimPair
	}{gridDigestVersion, s.Cfg, s.MemCfg, pairs}
	blob, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("experiments: grid digest: %w", err)
	}
	return fmt.Sprintf("grid-v%d-%x", gridDigestVersion, sha256.Sum256(blob)), nil
}

// RunGrid executes the pairs through eng as journaled cells keyed
// "scheme/workload". Each cell's payload is its Result marshalled as
// JSON — float64 values survive the round trip bit-exactly, so a
// resumed payload renders byte-identically to a live simulation.
// Payloads resumed from the journal are decoded back into the suite's
// result cache, so the serial render loop behind PrimeSims reads them
// as ordinary cache hits. Duplicate pairs collapse onto one cell.
func (s *Suite) RunGrid(eng *jobs.Engine, pairs []SimPair) (*jobs.Report, error) {
	return s.runGrid(s.Context(), eng, pairs)
}

// RunGridContext is RunGrid under an explicit per-call context, for
// hosts that bound individual grid runs tighter than the suite's own
// lifetime — the reramd daemon threads each request's deadline through
// here, so one slow client's sweep times out without touching the
// suite-wide context shared by every other request.
func (s *Suite) RunGridContext(ctx context.Context, eng *jobs.Engine, pairs []SimPair) (*jobs.Report, error) {
	if ctx == nil {
		ctx = s.Context()
	}
	return s.runGrid(ctx, eng, pairs)
}

// runGrid is RunGrid under an explicit context (PrimeSims threads the
// sweep's span context through here so cells nest under it).
func (s *Suite) runGrid(ctx context.Context, eng *jobs.Engine, pairs []SimPair) (*jobs.Report, error) {
	cells := make([]jobs.Cell, 0, len(pairs))
	seen := make(map[string]bool, len(pairs))
	for _, p := range pairs {
		p := p
		key := p.Scheme + "/" + p.Workload
		if seen[key] {
			continue
		}
		seen[key] = true
		cells = append(cells, jobs.Cell{
			Key: key,
			// RunCell is the one producer of cell payload bytes.
			Run: func(ctx context.Context) ([]byte, error) { return s.RunCell(ctx, key) },
		})
	}
	rep, err := eng.Run(ctx, cells)
	if rep != nil {
		s.seedResumed(rep)
	}
	return rep, err
}

// seedResumed installs journal-served payloads into the result cache
// (never overwriting a live result).
func (s *Suite) seedResumed(rep *jobs.Report) {
	for _, key := range rep.Resumed {
		var r memsys.Result
		if json.Unmarshal(rep.Done[key], &r) != nil {
			continue
		}
		s.mu.Lock()
		if _, ok := s.sims[key]; !ok {
			s.sims[key] = &r
		}
		s.mu.Unlock()
	}
}

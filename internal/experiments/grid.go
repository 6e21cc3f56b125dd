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

// key names a cell in journals, cell spans and reports. A cell on the
// suite's own configs is "scheme/workload", so reramsim's keys and the
// journals written before every figure ran as cells stay as they
// were. Any other cell appends "@" and 12 hex digits of the
// SHA-256 of its JSON-encoded (array, memory) configs.
func (s *Suite) key(c cell) (string, error) {
	k := c.Scheme + "/" + c.Workload
	if c.Array == s.Cfg && c.Mem == s.MemCfg {
		return k, nil
	}
	blob, err := json.Marshal(struct {
		Array xpoint.Config
		Mem   memsys.Config
	}{c.Array, c.Mem})
	if err != nil {
		return "", fmt.Errorf("experiments: cell %s: %w", k, err)
	}
	sum := sha256.Sum256(blob)
	return fmt.Sprintf("%s@%x", k, sum[:6]), nil
}

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
		Mem     memsys.Config
		Pairs   []SimPair
	}{gridDigestVersion, s.Cfg, s.MemCfg, pairs}
	blob, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("experiments: grid digest: %w", err)
	}
	return fmt.Sprintf("grid-v%d-%x", gridDigestVersion, sha256.Sum256(blob)), nil
}

// RunGridContext executes the pairs on the suite's own configs through
// eng under ctx, as journaled cells keyed "scheme/workload", and
// returns the engine's report. ctx stops the grid's running cells
// inside their event loops; reramsim passes the context its SIGINT and
// SIGTERM handler cancels.
func (s *Suite) RunGridContext(ctx context.Context, eng *jobs.Engine, pairs []SimPair) (*jobs.Report, error) {
	return s.runCells(ctx, eng, cells(s.Cfg, s.MemCfg, pairs))
}

// runCells is the one cell runner. Each cell's payload is its Result
// marshalled as JSON: float64 values survive the round trip
// bit-exactly, so a resumed payload renders byte-identically to a live
// simulation. Payloads served from the journal are decoded into the
// result cache (never over a live result), where renderers read them
// as ordinary cache hits. Duplicate cells collapse onto one.
func (s *Suite) runCells(ctx context.Context, eng *jobs.Engine, cs []cell) (*jobs.Report, error) {
	byKey := make(map[string]cell, len(cs))
	jcs := make([]jobs.Cell, 0, len(cs))
	for _, c := range cs {
		key, err := s.key(c)
		if err != nil {
			return nil, err
		}
		if _, dup := byKey[key]; dup {
			continue
		}
		byKey[key] = c
		jcs = append(jcs, jobs.Cell{Key: key, Run: func(ctx context.Context) ([]byte, error) {
			r, err := s.sim(ctx, c)
			if err != nil {
				return nil, err
			}
			return json.Marshal(r)
		}})
	}
	rep, err := eng.Run(ctx, jcs)
	if rep == nil {
		return nil, err
	}
	for _, key := range rep.Resumed {
		var r memsys.Result
		if json.Unmarshal(rep.Done[key], &r) != nil {
			continue
		}
		s.mu.Lock()
		if _, ok := s.sims[byKey[key]]; !ok {
			s.sims[byKey[key]] = &r
		}
		s.mu.Unlock()
	}
	return rep, err
}

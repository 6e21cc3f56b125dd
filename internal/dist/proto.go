// Package dist scales sweep execution across processes: a coordinator
// owns a sweep's cell set and leases cells to worker processes over a
// small HTTP+JSON RPC protocol; workers run leased cells through the
// same experiments/jobs path a local run uses and stream back finished
// cells as RSJL journal records, which the coordinator merges into its
// own journal. The result is horizontal throughput built directly on
// the crash-safety machinery: a SIGKILLed worker's leases expire on
// missed heartbeats and its cells are re-leased, -resume works across a
// mixed local/distributed history, and the final sweep output is
// byte-identical to a single-process run at any worker count.
//
// Protocol (all under /dist/v1/, JSON bodies, strict decoding):
//
//	POST /dist/v1/lease    LeaseRequest  -> LeaseResponse
//	POST /dist/v1/renew    RenewRequest  -> RenewResponse
//	POST /dist/v1/complete CompleteRequest -> CompleteResponse
//	GET  /dist/v1/grid?digest=...        -> GridSpec
//	GET  /healthz
//
// A lease carries the cell key, the grid digest pinning the exact sweep
// configuration, and a TTL. Workers renew at TTL/3; a lease not renewed
// before expiry returns to pending and is handed to the next worker.
// Completions travel as RSJL segment blobs — the checksummed container
// the on-disk journal uses — so wire corruption is detected by the same
// code that detects disk corruption, and merged records are bit-exact.
package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"reramsim/internal/memsys"
	"reramsim/internal/xpoint"
)

// Pair identifies one (scheme, workload) cell of the grid. The JSON
// field names match experiments.SimPair so the digest documents agree.
type Pair struct {
	Scheme   string
	Workload string
}

// Key returns the cell's journal key.
func (p Pair) Key() string { return p.Scheme + "/" + p.Workload }

// GridSpec ships everything a worker needs to rebuild the sweep's suite
// bit-exactly: the coordinator's calibrated array config (Eq. 1
// constants already fitted — workers never recalibrate), the full
// memory-system config and the cell list. Digest is the coordinator's
// experiments GridDigest; a worker recomputes it from the spec and
// refuses a mismatch, so a worker never runs cells under a
// configuration that differs from the journal's pin.
type GridSpec struct {
	Array  xpoint.Config `json:"array"`
	Mem    memsys.Config `json:"mem"` // Heartbeat carries json:"-": hooks never cross the wire
	Digest string        `json:"digest"`
	Pairs  []Pair        `json:"pairs"`
}

// Keys returns the grid's cell keys in pair order, duplicates dropped.
func (g GridSpec) Keys() []string {
	keys := make([]string, 0, len(g.Pairs))
	seen := make(map[string]bool, len(g.Pairs))
	for _, p := range g.Pairs {
		k := p.Key()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// Validate reports the first structural problem.
func (g GridSpec) Validate() error {
	switch {
	case g.Digest == "":
		return errors.New("dist: grid spec without digest")
	case len(g.Pairs) == 0:
		return errors.New("dist: grid spec without cells")
	}
	for _, p := range g.Pairs {
		if p.Scheme == "" || p.Workload == "" {
			return fmt.Errorf("dist: grid pair with empty scheme or workload (%q/%q)", p.Scheme, p.Workload)
		}
	}
	return nil
}

// LeaseRequest asks the coordinator for up to Max cells.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

// Validate reports the first structural problem.
func (r LeaseRequest) Validate() error {
	switch {
	case r.Worker == "":
		return errors.New("dist: lease request without worker id")
	case r.Max <= 0:
		return fmt.Errorf("dist: lease request with max %d", r.Max)
	}
	return nil
}

// Lease hands one cell to a worker until the TTL runs out or the worker
// completes/renews it.
type Lease struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Digest string `json:"digest"`
	TTLMs  int64  `json:"ttlMs"`
}

// Validate reports the first structural problem.
func (l Lease) Validate() error {
	switch {
	case l.ID == "":
		return errors.New("dist: lease without id")
	case l.Key == "":
		return errors.New("dist: lease without cell key")
	case l.Digest == "":
		return errors.New("dist: lease without digest")
	case l.TTLMs <= 0:
		return fmt.Errorf("dist: lease with ttl %dms", l.TTLMs)
	}
	return nil
}

// LeaseResponse returns granted leases, or — with none available — how
// the worker should behave: wait WaitMs and re-poll, or exit (Done:
// every sweep finished and the coordinator is one-shot).
type LeaseResponse struct {
	Leases   []Lease `json:"leases,omitempty"`
	Done     bool    `json:"done,omitempty"`
	Draining bool    `json:"draining,omitempty"`
	WaitMs   int64   `json:"waitMs,omitempty"`
}

// Validate reports the first structural problem.
func (r LeaseResponse) Validate() error {
	for _, l := range r.Leases {
		if err := l.Validate(); err != nil {
			return err
		}
	}
	if r.WaitMs < 0 {
		return fmt.Errorf("dist: lease response with wait %dms", r.WaitMs)
	}
	return nil
}

// RenewRequest heartbeats the worker's outstanding leases.
type RenewRequest struct {
	Worker string   `json:"worker"`
	IDs    []string `json:"ids"`
}

// Validate reports the first structural problem.
func (r RenewRequest) Validate() error {
	if r.Worker == "" {
		return errors.New("dist: renew request without worker id")
	}
	for _, id := range r.IDs {
		if id == "" {
			return errors.New("dist: renew request with empty lease id")
		}
	}
	return nil
}

// RenewResponse lists the leases extended and the leases the worker no
// longer holds (expired and re-leased elsewhere; the worker abandons
// those cells).
type RenewResponse struct {
	Renewed []string `json:"renewed,omitempty"`
	Lost    []string `json:"lost,omitempty"`
	TTLMs   int64    `json:"ttlMs"`
}

// Validate reports the first structural problem.
func (r RenewResponse) Validate() error {
	if r.TTLMs < 0 {
		return fmt.Errorf("dist: renew response with ttl %dms", r.TTLMs)
	}
	return nil
}

// CompleteRequest streams finished cells back: Segment is an RSJL blob
// (jobs.EncodeSegment) holding completed and/or quarantined records,
// Leases maps each record's cell key to the lease it was run under, and
// Digests maps each completed record's cell key to the worker's claimed
// jobs.ResultDigest — the coordinator recomputes it from the received
// payload and rejects mismatches, so a blob corrupted in flight (or a
// worker shipping bytes it did not compute) never merges.
type CompleteRequest struct {
	Worker  string            `json:"worker"`
	Digest  string            `json:"digest"`
	Leases  map[string]string `json:"leases,omitempty"`
	Digests map[string]string `json:"digests,omitempty"`
	Segment []byte            `json:"segment"`
}

// Validate reports the first structural problem (the segment's own
// integrity is checked by jobs.DecodeSegment at the receiver).
func (r CompleteRequest) Validate() error {
	switch {
	case r.Worker == "":
		return errors.New("dist: complete request without worker id")
	case r.Digest == "":
		return errors.New("dist: complete request without digest")
	case len(r.Segment) == 0:
		return errors.New("dist: complete request without segment")
	}
	return nil
}

// BadRecord reports one integrity rejection back to the sender: the
// cell key and the Reason* constant the coordinator refused it under
// (the wire form of ErrBadSegment).
type BadRecord struct {
	Key    string `json:"key"`
	Reason string `json:"reason"`
}

// CompleteResponse acknowledges merged cell keys; Rejected lists keys
// the coordinator dropped benignly (unknown sweep, already finished
// elsewhere), Bad lists integrity rejections — the worker should not
// retry those, the coordinator has already debited its health score.
type CompleteResponse struct {
	Accepted []string    `json:"accepted,omitempty"`
	Rejected []string    `json:"rejected,omitempty"`
	Bad      []BadRecord `json:"bad,omitempty"`
}

// AttachRequest points a worker agent at a coordinator (the push half
// of reramd's -workers bootstrap; POST /worker/v1/attach on the agent).
type AttachRequest struct {
	Coordinator string `json:"coordinator"`
}

// Validate reports the first structural problem.
func (r AttachRequest) Validate() error {
	if r.Coordinator == "" {
		return errors.New("dist: attach request without coordinator address")
	}
	return nil
}

// decodeStrict parses JSON rejecting unknown fields and trailing data,
// so protocol-version skew fails loudly instead of silently dropping
// fields.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("dist: decode: %w", err)
	}
	if dec.More() {
		return errors.New("dist: trailing data after message")
	}
	return nil
}

// DecodeGridSpec strictly parses and validates a GridSpec.
func DecodeGridSpec(data []byte) (GridSpec, error) {
	var m GridSpec
	if err := decodeStrict(data, &m); err != nil {
		return GridSpec{}, err
	}
	return m, m.Validate()
}

// DecodeLeaseRequest strictly parses and validates a LeaseRequest.
func DecodeLeaseRequest(data []byte) (LeaseRequest, error) {
	var m LeaseRequest
	if err := decodeStrict(data, &m); err != nil {
		return LeaseRequest{}, err
	}
	return m, m.Validate()
}

// DecodeLeaseResponse strictly parses and validates a LeaseResponse.
func DecodeLeaseResponse(data []byte) (LeaseResponse, error) {
	var m LeaseResponse
	if err := decodeStrict(data, &m); err != nil {
		return LeaseResponse{}, err
	}
	return m, m.Validate()
}

// DecodeRenewRequest strictly parses and validates a RenewRequest.
func DecodeRenewRequest(data []byte) (RenewRequest, error) {
	var m RenewRequest
	if err := decodeStrict(data, &m); err != nil {
		return RenewRequest{}, err
	}
	return m, m.Validate()
}

// DecodeRenewResponse strictly parses and validates a RenewResponse.
func DecodeRenewResponse(data []byte) (RenewResponse, error) {
	var m RenewResponse
	if err := decodeStrict(data, &m); err != nil {
		return RenewResponse{}, err
	}
	return m, m.Validate()
}

// DecodeCompleteRequest strictly parses and validates a CompleteRequest.
func DecodeCompleteRequest(data []byte) (CompleteRequest, error) {
	var m CompleteRequest
	if err := decodeStrict(data, &m); err != nil {
		return CompleteRequest{}, err
	}
	return m, m.Validate()
}

// DecodeCompleteResponse strictly parses a CompleteResponse.
func DecodeCompleteResponse(data []byte) (CompleteResponse, error) {
	var m CompleteResponse
	if err := decodeStrict(data, &m); err != nil {
		return CompleteResponse{}, err
	}
	return m, nil
}

// DecodeAttachRequest strictly parses and validates an AttachRequest.
func DecodeAttachRequest(data []byte) (AttachRequest, error) {
	var m AttachRequest
	if err := decodeStrict(data, &m); err != nil {
		return AttachRequest{}, err
	}
	return m, m.Validate()
}

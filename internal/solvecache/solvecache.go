// Package solvecache is a content-addressed on-disk cache for solver
// products (calibrated level tables, RESET cost memo entries).
//
// Entries are keyed by a digest of everything that determines the solve
// (array config, options, table contents, a schema version), so a key
// either names exactly the bytes a live solve would produce or does not
// exist: there is no invalidation protocol — changed inputs simply hash
// to a different key and the stale file is never read again.
//
// The cache is strictly best-effort: a nil *Cache, a missing directory,
// a truncated file, a checksum mismatch or a stale schema version all
// degrade to a miss, and the caller re-solves live. Writes go through
// internal/atomicio (per-process-unique temp file + rename), so any
// number of processes sharing a directory never observe a torn entry or
// race on a common temp path.
package solvecache

import (
	"os"
	"path/filepath"

	"reramsim/internal/atomicio"
	"reramsim/internal/obs"
)

// SchemaVersion is the on-disk container version. Bumping it orphans
// every existing entry (they fail the header check and fall back to live
// solves); callers layer their own payload versions into the key digest
// for format changes of the payload itself.
const SchemaVersion = 1

// magic identifies reramsim solve-cache files, each one payload in
// atomicio's sealed container.
var magic = [4]byte{'R', 'S', 'S', 'C'}

var (
	obsHits   = obs.C("solvecache.hits")
	obsMisses = obs.C("solvecache.misses")
	obsWrites = obs.C("solvecache.writes")
	obsErrors = obs.C("solvecache.errors")
)

// Cache is one cache directory. A nil *Cache is valid: every Get misses
// and every Put is a no-op, so callers thread one pointer through without
// guarding the disabled case.
type Cache struct {
	dir string
}

// Open creates (if needed) and opens a cache directory.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache directory, or "" for a nil cache.
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// path maps a key (a hex digest, by convention prefixed with the entry
// kind) to its file.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".bin")
}

// Get returns the payload stored under key, or (nil, false) when the
// entry is absent, truncated, corrupt, or from another schema version.
// Failures are silent by design: the caller always has the live solve.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	blob, err := os.ReadFile(c.path(key))
	if err != nil {
		obsMisses.Inc()
		return nil, false
	}
	payload, ok := atomicio.Unseal(magic, SchemaVersion, blob)
	if !ok {
		obsMisses.Inc()
		return nil, false
	}
	obsHits.Inc()
	return payload, true
}

// Put stores payload under key atomically (per-process-unique temp file
// + rename via internal/atomicio, so two processes hammering one
// directory never collide on a temp path). Errors are swallowed after
// counting: a read-only or full disk turns the cache off, it never turns
// the run into a failure.
func (c *Cache) Put(key string, payload []byte) {
	if c == nil {
		return
	}
	if err := atomicio.WriteFile(c.dir, key+".bin", atomicio.Seal(magic, SchemaVersion, payload), 0o644); err != nil {
		obsErrors.Inc()
		return
	}
	obsWrites.Inc()
}

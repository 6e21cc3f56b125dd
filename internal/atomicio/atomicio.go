// Package atomicio is the crash-safe file format and write primitive
// shared by the persistent solve cache and the jobs run journal: data is
// written to a temp file in the destination directory and renamed over
// the target, so a reader (or a process that crashes mid-write) never
// observes a torn file, and Seal/Unseal wrap a payload in a checksummed
// container, so a reader never accepts a damaged one.
//
// Temp names embed the writer's pid and a process-local counter, so any
// number of processes can write into one directory concurrently without
// ever racing on a shared temp path — two writers of the same key simply
// rename their own complete blobs, and the directory ends up with one of
// them (rename is atomic on POSIX).
package atomicio

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
)

// Stages of the temp-write+rename dance, carried by WriteError so a
// failure report says exactly how far the write got.
const (
	StageCreateTemp = "create temp"
	StageWrite      = "write"
	StageSync       = "sync"
	StageClose      = "close"
	StageRename     = "rename"
)

// WriteError is a failed atomic write: the destination the caller asked
// for, the stage that failed, and the underlying cause. A short write
// (ENOSPC commonly surfaces as one) is reported at StageWrite wrapping
// io.ErrShortWrite, so callers can errors.Is their way to the cause while
// logs name the file that did not land.
type WriteError struct {
	Dest  string // final destination path (dir/name)
	Stage string // Stage* constant naming the failed step
	Err   error
}

func (e *WriteError) Error() string {
	if e.DiskFull() {
		return fmt.Sprintf("atomicio: %s %s: %v (disk full writing %s — free space or move the directory, then retry; no partial file was left behind)",
			e.Stage, e.Dest, e.Err, filepath.Dir(e.Dest))
	}
	return fmt.Sprintf("atomicio: %s %s: %v", e.Stage, e.Dest, e.Err)
}

// Unwrap exposes the cause to errors.Is/As (e.g. io.ErrShortWrite,
// syscall.ENOSPC, fs.ErrPermission).
func (e *WriteError) Unwrap() error { return e.Err }

// DiskFull reports whether the failure is the out-of-space family:
// ENOSPC, EDQUOT (quota), or a short write — the way a full filesystem
// most often first announces itself. Callers branch on this to give the
// operator an actionable "free disk space" message instead of a retry.
func (e *WriteError) DiskFull() bool {
	return errors.Is(e.Err, syscall.ENOSPC) ||
		errors.Is(e.Err, syscall.EDQUOT) ||
		errors.Is(e.Err, io.ErrShortWrite)
}

// IsDiskFull reports whether err is (or wraps) a disk-full WriteError.
func IsDiskFull(err error) bool {
	var we *WriteError
	return errors.As(err, &we) && we.DiskFull()
}

// hook, when set, is consulted before each stage of a write with the
// destination path and the Stage* about to run; a non-nil return aborts
// the write as if the OS had failed that stage. It exists for tests that
// need deterministic ENOSPC/short-write injection without filling a real
// filesystem. The nil fast path is one
// atomic load, so production writes pay nothing.
var hook atomic.Pointer[func(dest, stage string) error]

// SetHook installs (or, with nil, removes) the stage-fault hook. It
// returns the previous hook so tests can restore it.
func SetHook(h func(dest, stage string) error) (prev func(dest, stage string) error) {
	var p *func(dest, stage string) error
	if h != nil {
		p = &h
	}
	if old := hook.Swap(p); old != nil {
		prev = *old
	}
	return prev
}

// stageFault runs the installed hook, if any, for one stage.
func stageFault(dest, stage string) error {
	h := hook.Load()
	if h == nil {
		return nil
	}
	return (*h)(dest, stage)
}

// seq disambiguates concurrent writers inside one process.
var seq atomic.Uint64

// TempName returns a directory-local temp file name that is unique across
// processes (pid) and within this process (counter). The leading dot keeps
// half-written blobs out of glob scans of the directory.
func TempName(base string) string {
	return fmt.Sprintf(".%s.%d.%d.tmp", base, os.Getpid(), seq.Add(1))
}

// WriteFile atomically creates or replaces dir/name with data.
func WriteFile(dir, name string, data []byte, perm os.FileMode) error {
	return write(dir, name, data, perm, false)
}

// WriteFileSync is WriteFile plus an fsync of the temp file before the
// rename, for writers (the jobs journal) that must survive power loss,
// not just process death.
func WriteFileSync(dir, name string, data []byte, perm os.FileMode) error {
	return write(dir, name, data, perm, true)
}

func write(dir, name string, data []byte, perm os.FileMode, sync bool) error {
	dst := filepath.Join(dir, name)
	tmp := filepath.Join(dir, TempName(name))
	fail := func(stage string, err error) error {
		os.Remove(tmp)
		return &WriteError{Dest: dst, Stage: stage, Err: err}
	}
	if err := stageFault(dst, StageCreateTemp); err != nil {
		return &WriteError{Dest: dst, Stage: StageCreateTemp, Err: err}
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, perm)
	if err != nil {
		return &WriteError{Dest: dst, Stage: StageCreateTemp, Err: err}
	}
	werr := stageFault(dst, StageWrite)
	if werr == nil {
		werr = writeAll(f, data)
	}
	if werr != nil {
		f.Close()
		return fail(StageWrite, werr)
	}
	if sync {
		serr := stageFault(dst, StageSync)
		if serr == nil {
			serr = f.Sync()
		}
		if serr != nil {
			f.Close()
			return fail(StageSync, serr)
		}
	}
	if err := f.Close(); err != nil {
		return fail(StageClose, err)
	}
	rerr := stageFault(dst, StageRename)
	if rerr == nil {
		rerr = os.Rename(tmp, dst)
	}
	if rerr != nil {
		return fail(StageRename, rerr)
	}
	return nil
}

// writeAll pushes data through w, converting the silent short-write case
// (n < len(data) with a nil error — how a full disk often first shows up)
// into io.ErrShortWrite so no byte count is ever lost without an error.
func writeAll(w io.Writer, data []byte) error {
	n, err := w.Write(data)
	if err != nil {
		return err
	}
	if n < len(data) {
		return fmt.Errorf("wrote %d of %d bytes: %w", n, len(data), io.ErrShortWrite)
	}
	return nil
}

// sealHeaderSize is the container header: magic (4) | version (4, LE) |
// payload length (8, LE) | payload SHA-256 (32). The payload follows.
const sealHeaderSize = 4 + 4 + 8 + sha256.Size

// Seal wraps payload in the checksummed container, tagged with the
// caller's file magic and format version.
func Seal(magic [4]byte, version uint32, payload []byte) []byte {
	blob := make([]byte, sealHeaderSize+len(payload))
	copy(blob[:4], magic[:])
	binary.LittleEndian.PutUint32(blob[4:8], version)
	binary.LittleEndian.PutUint64(blob[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(blob[16:sealHeaderSize], sum[:])
	copy(blob[sealHeaderSize:], payload)
	return blob
}

// Unseal returns the payload of a container Seal built with the same
// magic and version. Any defect (truncation, another magic or version,
// a length or checksum mismatch) returns (nil, false). It never panics
// on arbitrary bytes.
func Unseal(magic [4]byte, version uint32, blob []byte) ([]byte, bool) {
	if len(blob) < sealHeaderSize || [4]byte(blob[:4]) != magic ||
		binary.LittleEndian.Uint32(blob[4:8]) != version {
		return nil, false
	}
	payload := blob[sealHeaderSize:]
	if binary.LittleEndian.Uint64(blob[8:16]) != uint64(len(payload)) ||
		sha256.Sum256(payload) != [sha256.Size]byte(blob[16:sealHeaderSize]) {
		return nil, false
	}
	return payload, true
}

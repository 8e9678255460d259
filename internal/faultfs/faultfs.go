// Package faultfs is the storage counterpart of internal/chaos: a
// small VFS seam between the repository's durable-state code
// (fleetlog segments, checkpoint snapshots, fleet state entries) and
// the operating system, plus a seeded, deterministic fault Injector
// that produces the failures real disks actually serve — short
// writes, ENOSPC, fsync errors, torn renames, read EIO, and full
// "stop the world after byte N of operation M" crash points.
//
// Production code holds a faultfs.FS and never touches the os package
// for durable state (the parborvet faultfs pass enforces this over
// internal/fleetlog, internal/checkpoint, and internal/fleet). The
// default implementation, OS, is a zero-cost passthrough; tests and
// the parbord -diskchaos-seed soak flag swap in an Injector wrapping
// OS, so every fault lands on a real file and the *recovery* path runs
// against genuine on-disk damage, not a mock's idea of it.
//
// The package also owns the one sanctioned way to replace a file's
// contents durably: WriteFileAtomic (write temp -> fsync -> rename ->
// fsync directory). Every persistence site that used to be a bare
// os.WriteFile goes through it, so a crash at any byte of any step
// leaves either the old file or the new file, never a torn hybrid —
// a property the injector's crash-point sweep proves point by point.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the per-handle surface the repository's storage code needs.
// It is a strict subset of *os.File, which implements it directly.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.WriterAt
	io.Seeker
	// Sync flushes the file to stable storage. A Sync error means the
	// kernel may have dropped dirty pages: callers must treat the tail
	// written since the last successful Sync as suspect.
	Sync() error
	Truncate(size int64) error
	Stat() (fs.FileInfo, error)
	Name() string
	Close() error
}

// FS is the filesystem seam. Implementations: OS (passthrough) and
// Injector (deterministic fault plane wrapping another FS).
type FS interface {
	Open(name string) (File, error)
	Create(name string) (File, error)
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	// WriteFile is the plain non-durable write (no fsync, no rename
	// dance). Persistence sites use WriteFileAtomic instead.
	WriteFile(name string, data []byte, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(path string, perm fs.FileMode) error
	// SyncDir fsyncs a directory, making previously committed renames
	// and creates in it durable. Filesystems without directory handles
	// may make this a no-op; the injector models it as a crash point.
	SyncDir(name string) error
}

// OS is the passthrough FS: every call maps 1:1 onto the os package.
// The zero value is ready to use.
type OS struct{}

var _ FS = OS{}

// Open implements FS.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// WriteFile implements FS.
func (OS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// ReadDir implements FS.
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// SyncDir implements FS. Directories are opened read-only and
// fsynced; on filesystems that reject fsync on directories the error
// is surfaced (callers decide whether durability is load-bearing).
func (OS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Injected fault sentinels. They surface wrapped in *OpError, so
// errors.Is works through the wrapper.
var (
	// ErrNoSpace is the injected ENOSPC: the write failed before any
	// byte reached the file.
	ErrNoSpace = errors.New("faultfs: no space left on device (injected)")
	// ErrShortWrite is an injected partial write: a prefix of the
	// buffer reached the file, then the device gave up.
	ErrShortWrite = errors.New("faultfs: short write (injected)")
	// ErrIO is the injected EIO on reads: the sector is unreadable.
	ErrIO = errors.New("faultfs: input/output error (injected)")
	// ErrSync is the injected fsync failure: dirty pages may have been
	// dropped and the unsynced tail must be treated as suspect.
	ErrSync = errors.New("faultfs: fsync failed (injected)")
	// ErrCrashed marks the stop-the-world state: the injector reached
	// its configured crash point and every subsequent operation fails,
	// simulating the process dying mid-sequence. Only reopening the
	// state with a fresh FS (a "new process") moves past it.
	ErrCrashed = errors.New("faultfs: crashed (injected stop-the-world)")
)

// OpError is one injected fault, annotating the operation and path.
type OpError struct {
	// Op names the operation ("write", "sync", "rename", ...).
	Op string
	// Path is the file the operation targeted.
	Path string
	// Err is the underlying sentinel (ErrNoSpace, ErrIO, ...).
	Err error
	// Persistent marks a fault that will not clear on retry: crash
	// points and Break-induced outages. Probabilistic faults are
	// transient — the draw is keyed on the operation sequence number,
	// so a retry sees a fresh draw, exactly like the chaos plane's
	// attempt-keyed glitches.
	Persistent bool
}

// Error implements error.
func (e *OpError) Error() string {
	return fmt.Sprintf("faultfs: %s %s: %v", e.Op, e.Path, e.Err)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *OpError) Unwrap() error { return e.Err }

// Transient reports whether a retry may succeed, in the
// memctl.IsTransient idiom.
func (e *OpError) Transient() bool { return !e.Persistent }

// transient is the duck type shared with memctl/chaos errors.
type transient interface{ Transient() bool }

// IsTransient reports whether err is a fault a bounded retry is
// allowed to absorb. Real-OS errors are never transient here: the
// retry policies this package feeds are for the injected plane and
// for genuinely retryable conditions an implementation marks itself.
func IsTransient(err error) bool {
	var t transient
	return errors.As(err, &t) && t.Transient()
}

// WriteFileAtomic durably replaces path with data: the bytes are
// written to a sibling temp file, fsynced, renamed over path, and the
// directory is fsynced so the rename itself survives a crash. At
// every intermediate failure or crash point the visible state is
// either the old file (or its absence) or the complete new file —
// never a prefix, never a hybrid. The injector crash-point sweep in
// this package's tests proves that claim for every operation.
//
// A leftover temp file from a crashed earlier attempt is silently
// overwritten (O_TRUNC, not O_EXCL): the temp name is deterministic
// so crashes cannot litter the directory with orphans.
func WriteFileAtomic(fsys FS, path string, data []byte, perm fs.FileMode) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return fmt.Errorf("faultfs: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("faultfs: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("faultfs: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("faultfs: closing %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("faultfs: renaming %s: %w", tmp, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		// The rename happened; only its durability is in doubt. Report
		// it — the caller may be about to delete the data's other copy.
		return fmt.Errorf("faultfs: syncing dir of %s: %w", path, err)
	}
	return nil
}

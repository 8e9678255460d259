package faultfs

import (
	"fmt"
	"io/fs"
	"os"
	"sync"

	"parbor/internal/rng"
)

// OpKind names one fault-eligible filesystem operation.
type OpKind string

// The fault-eligible operations. Every call through an Injector that
// can fail on real storage is one of these; pure metadata calls
// (Seek, Stat, Name) are not fault points and are not traced.
const (
	OpOpen     OpKind = "open"
	OpCreate   OpKind = "create"
	OpOpenFile OpKind = "openfile"
	OpRead     OpKind = "read"
	OpReadFile OpKind = "readfile"
	OpWrite    OpKind = "write"
	OpSync     OpKind = "sync"
	OpTruncate OpKind = "truncate"
	OpRename   OpKind = "rename"
	OpRemove   OpKind = "remove"
	OpReadDir  OpKind = "readdir"
	OpMkdirAll OpKind = "mkdirall"
	OpSyncDir  OpKind = "syncdir"
)

// Op is one traced operation: the unit of the crash-point sweep. A
// test first runs a scenario with a fault-free Injector, reads the
// trace to learn how many operations the scenario performs, then
// replays it once per operation with CrashOp pinned to that sequence
// number — enumerating every instant a real machine could lose power.
type Op struct {
	// Seq is the 1-based operation sequence number.
	Seq int
	// Kind is the operation.
	Kind OpKind
	// Path is the file or directory operated on.
	Path string
	// Bytes is the buffer length for reads and writes, 0 otherwise.
	Bytes int
	// Fault records what the injector did to the op: "" (clean),
	// "crash", "broken", "enospc", "short", "eio", "esync", "erename".
	Fault string
}

// InjectorConfig parameterizes an Injector. The zero value injects
// nothing (but still traces, which is what the sweep's counting pass
// uses).
type InjectorConfig struct {
	// Seed roots every probabilistic decision. Draws are keyed on the
	// operation sequence number, so a fixed seed and a deterministic
	// caller reproduce the exact fault schedule, and a retried
	// operation (new sequence number) sees a fresh draw.
	Seed uint64
	// WriteErrProb is the per-write probability of ENOSPC: the write
	// fails before any byte reaches the file.
	WriteErrProb float64
	// ShortWriteProb is the per-write probability of a partial write:
	// a nonempty strict prefix reaches the file, then ErrShortWrite.
	// Writes of one byte or less cannot be torn and are exempt.
	ShortWriteProb float64
	// SyncErrProb is the per-fsync (file or directory) probability of
	// ErrSync.
	SyncErrProb float64
	// ReadErrProb is the per-read probability of ErrIO.
	ReadErrProb float64
	// RenameErrProb is the per-rename probability of failing without
	// committing (the torn-rename transient case: the temp file stays,
	// the destination is untouched).
	RenameErrProb float64
	// CrashOp, when > 0, stops the world at the operation with that
	// sequence number: the op takes partial effect per CrashByte, the
	// injector flips into the crashed state, and every subsequent
	// operation fails with ErrCrashed until the state is reopened with
	// a fresh FS (a "new process"). 0 means never crash.
	CrashOp int
	// CrashByte shapes the crash point. For a write op it is how many
	// bytes of the buffer reach the file before the stop (clamped to
	// [0, len]). For any other op, 0 crashes BEFORE the op commits
	// (rename not performed, file not created) and any positive value
	// crashes AFTER it commits — both sides of every torn transition.
	CrashByte int
}

// Validate rejects configurations outside the model's domain.
func (c InjectorConfig) Validate() error {
	probs := []struct {
		name string
		p    float64
	}{
		{"WriteErrProb", c.WriteErrProb},
		{"ShortWriteProb", c.ShortWriteProb},
		{"SyncErrProb", c.SyncErrProb},
		{"ReadErrProb", c.ReadErrProb},
		{"RenameErrProb", c.RenameErrProb},
	}
	for _, pr := range probs {
		if pr.p < 0 || pr.p > 1 {
			return fmt.Errorf("faultfs: %s %v outside [0, 1]", pr.name, pr.p)
		}
	}
	if c.CrashOp < 0 {
		return fmt.Errorf("faultfs: negative CrashOp %d", c.CrashOp)
	}
	if c.CrashByte < 0 {
		return fmt.Errorf("faultfs: negative CrashByte %d", c.CrashByte)
	}
	return nil
}

// Injector is a deterministic disk-fault plane wrapping an inner FS
// (usually OS, so injected damage lands on real files and recovery
// code runs against genuine on-disk state). It is safe for concurrent
// use; the operation sequence is serialized under one mutex, which is
// also what makes the trace a total order the sweep can replay.
type Injector struct {
	in  FS
	cfg InjectorConfig

	mu      sync.Mutex
	seq     int   //parbor:guardedby mu
	crashed bool  //parbor:guardedby mu
	broken  error //parbor:guardedby mu
	trace   []Op  //parbor:guardedby mu
}

var _ FS = (*Injector)(nil)

// NewInjector validates cfg and wraps inner (nil selects OS).
func NewInjector(inner FS, cfg InjectorConfig) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if inner == nil {
		inner = OS{}
	}
	return &Injector{in: inner, cfg: cfg}, nil
}

// Break forces every subsequent mutating operation (writes, syncs,
// creates, renames, removes, truncates) to fail persistently with
// cause until Heal — the "disk went read-only / volume detached"
// outage the daemon's log-degraded mode must survive. Reads keep
// working. A nil cause selects ErrIO.
func (in *Injector) Break(cause error) {
	if cause == nil {
		cause = ErrIO
	}
	in.mu.Lock()
	in.broken = cause
	in.mu.Unlock()
}

// Heal clears a Break outage. It does not clear the crashed state:
// a crashed process never comes back, it is replaced.
func (in *Injector) Heal() {
	in.mu.Lock()
	in.broken = nil
	in.mu.Unlock()
}

// Crashed reports whether the configured crash point was reached.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// Ops returns how many operations have been traced.
func (in *Injector) Ops() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seq
}

// Trace returns a copy of the operation trace so far.
func (in *Injector) Trace() []Op {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Op, len(in.trace))
	copy(out, in.trace)
	return out
}

// Faults returns how many traced operations had a fault injected.
func (in *Injector) Faults() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, op := range in.trace {
		if op.Fault != "" {
			n++
		}
	}
	return n
}

// plan is one operation's verdict: err to return (nil = clean), and
// partial, which for writes is how many bytes to apply first and for
// other ops is nonzero when the op's effect should commit before the
// error is returned.
type plan struct {
	err     error
	partial int
}

// step serializes one operation: assigns its sequence number, records
// the trace entry, and decides its fate (crash point, outage, or a
// seeded probabilistic fault).
func (in *Injector) step(kind OpKind, path string, n int, mutating bool) plan {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return plan{err: &OpError{Op: string(kind), Path: path, Err: ErrCrashed, Persistent: true}}
	}
	in.seq++
	op := Op{Seq: in.seq, Kind: kind, Path: path, Bytes: n}
	// The deferred append runs before the deferred Unlock (LIFO), so
	// mu is still held; lockguard cannot see across the two defers.
	//parbor:unsync deferred trace append runs before the LIFO-later deferred Unlock, mu still held
	defer func() { in.trace = append(in.trace, op) }()

	if in.cfg.CrashOp > 0 && in.seq == in.cfg.CrashOp {
		in.crashed = true
		op.Fault = "crash"
		partial := in.cfg.CrashByte
		if kind == OpWrite {
			if partial > n {
				partial = n
			}
		} else if partial > 0 {
			partial = 1
		}
		return plan{
			err:     &OpError{Op: string(kind), Path: path, Err: ErrCrashed, Persistent: true},
			partial: partial,
		}
	}
	if in.broken != nil && mutating {
		op.Fault = "broken"
		return plan{err: &OpError{Op: string(kind), Path: path, Err: in.broken, Persistent: true}}
	}

	s := rng.New(in.cfg.Seed).Split("faultfs").SplitN("op", uint64(in.seq))
	fault := func(tag string, sentinel error) plan {
		op.Fault = tag
		return plan{err: &OpError{Op: string(kind), Path: path, Err: sentinel}}
	}
	switch kind {
	case OpWrite:
		if s.Bool(in.cfg.WriteErrProb) {
			return fault("enospc", ErrNoSpace)
		}
		if n > 1 && s.Bool(in.cfg.ShortWriteProb) {
			op.Fault = "short"
			return plan{
				err:     &OpError{Op: string(kind), Path: path, Err: ErrShortWrite},
				partial: 1 + s.Intn(n-1),
			}
		}
	case OpRead, OpReadFile:
		if s.Bool(in.cfg.ReadErrProb) {
			return fault("eio", ErrIO)
		}
	case OpSync, OpSyncDir:
		if s.Bool(in.cfg.SyncErrProb) {
			return fault("esync", ErrSync)
		}
	case OpRename:
		if s.Bool(in.cfg.RenameErrProb) {
			return fault("erename", ErrNoSpace)
		}
	}
	return plan{}
}

// checkAlive gates the un-traced metadata calls (Seek, Stat) on the
// crashed state without consuming a sequence number.
func (in *Injector) checkAlive(kind OpKind, path string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return &OpError{Op: string(kind), Path: path, Err: ErrCrashed, Persistent: true}
	}
	return nil
}

// Open implements FS. Read-only opens are crash points but are not
// covered by Break.
func (in *Injector) Open(name string) (File, error) {
	pl := in.step(OpOpen, name, 0, false)
	if pl.err != nil {
		return nil, pl.err
	}
	f, err := in.in.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{in: f, inj: in, path: name}, nil
}

// Create implements FS.
func (in *Injector) Create(name string) (File, error) {
	pl := in.step(OpCreate, name, 0, true)
	if pl.err != nil {
		if pl.partial > 0 { // crash after the create committed
			if f, err := in.in.Create(name); err == nil {
				f.Close()
			}
		}
		return nil, pl.err
	}
	f, err := in.in.Create(name)
	if err != nil {
		return nil, err
	}
	return &injFile{in: f, inj: in, path: name}, nil
}

// OpenFile implements FS. Opens that can mutate (create, truncate,
// write access) are covered by Break; read-only opens are not.
func (in *Injector) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	mutating := flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND) != 0
	pl := in.step(OpOpenFile, name, 0, mutating)
	if pl.err != nil {
		if pl.partial > 0 && flag&os.O_CREATE != 0 { // crash after creation
			if f, err := in.in.OpenFile(name, flag, perm); err == nil {
				f.Close()
			}
		}
		return nil, pl.err
	}
	f, err := in.in.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: f, inj: in, path: name}, nil
}

// ReadFile implements FS.
func (in *Injector) ReadFile(name string) ([]byte, error) {
	pl := in.step(OpReadFile, name, 0, false)
	if pl.err != nil {
		return nil, pl.err
	}
	return in.in.ReadFile(name)
}

// WriteFile implements FS. A short-write or partial-crash fault
// leaves the injected prefix in the file, exactly as a torn
// non-atomic write would.
func (in *Injector) WriteFile(name string, data []byte, perm fs.FileMode) error {
	pl := in.step(OpWrite, name, len(data), true)
	if pl.err != nil {
		if pl.partial > 0 {
			in.in.WriteFile(name, data[:min(pl.partial, len(data))], perm)
		}
		return pl.err
	}
	return in.in.WriteFile(name, data, perm)
}

// Rename implements FS. A crash with CrashByte 0 stops before the
// rename commits (temp file remains, destination untouched); with
// CrashByte > 0 the rename commits and then the world stops.
func (in *Injector) Rename(oldpath, newpath string) error {
	pl := in.step(OpRename, oldpath, 0, true)
	if pl.err != nil {
		if pl.partial > 0 {
			in.in.Rename(oldpath, newpath)
		}
		return pl.err
	}
	return in.in.Rename(oldpath, newpath)
}

// Remove implements FS.
func (in *Injector) Remove(name string) error {
	pl := in.step(OpRemove, name, 0, true)
	if pl.err != nil {
		if pl.partial > 0 {
			in.in.Remove(name)
		}
		return pl.err
	}
	return in.in.Remove(name)
}

// ReadDir implements FS.
func (in *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	pl := in.step(OpReadDir, name, 0, false)
	if pl.err != nil {
		return nil, pl.err
	}
	return in.in.ReadDir(name)
}

// MkdirAll implements FS.
func (in *Injector) MkdirAll(path string, perm fs.FileMode) error {
	pl := in.step(OpMkdirAll, path, 0, true)
	if pl.err != nil {
		if pl.partial > 0 {
			in.in.MkdirAll(path, perm)
		}
		return pl.err
	}
	return in.in.MkdirAll(path, perm)
}

// SyncDir implements FS.
func (in *Injector) SyncDir(name string) error {
	pl := in.step(OpSyncDir, name, 0, true)
	if pl.err != nil {
		if pl.partial > 0 {
			in.in.SyncDir(name)
		}
		return pl.err
	}
	return in.in.SyncDir(name)
}

// injFile wraps one handle of the inner FS.
type injFile struct {
	in   File
	inj  *Injector
	path string
}

// Read implements File.
func (f *injFile) Read(p []byte) (int, error) {
	pl := f.inj.step(OpRead, f.path, len(p), false)
	if pl.err != nil {
		return 0, pl.err
	}
	return f.in.Read(p)
}

// ReadAt implements File.
func (f *injFile) ReadAt(p []byte, off int64) (int, error) {
	pl := f.inj.step(OpRead, f.path, len(p), false)
	if pl.err != nil {
		return 0, pl.err
	}
	return f.in.ReadAt(p, off)
}

// Write implements File. Short writes and partial crash points write
// the injected prefix through to the inner file, so the torn bytes
// are really on disk for the recovery path to find.
func (f *injFile) Write(p []byte) (int, error) {
	pl := f.inj.step(OpWrite, f.path, len(p), true)
	if pl.err != nil {
		n := 0
		if pl.partial > 0 {
			var werr error
			n, werr = f.in.Write(p[:pl.partial])
			if werr != nil {
				return n, werr
			}
		}
		return n, pl.err
	}
	return f.in.Write(p)
}

// WriteAt implements File, with the same partial-write semantics as
// Write.
func (f *injFile) WriteAt(p []byte, off int64) (int, error) {
	pl := f.inj.step(OpWrite, f.path, len(p), true)
	if pl.err != nil {
		n := 0
		if pl.partial > 0 {
			var werr error
			n, werr = f.in.WriteAt(p[:pl.partial], off)
			if werr != nil {
				return n, werr
			}
		}
		return n, pl.err
	}
	return f.in.WriteAt(p, off)
}

// Seek implements File. Not a fault point (no device I/O), but a
// crashed world rejects it.
func (f *injFile) Seek(offset int64, whence int) (int64, error) {
	if err := f.inj.checkAlive(OpOpen, f.path); err != nil {
		return 0, err
	}
	return f.in.Seek(offset, whence)
}

// Sync implements File.
func (f *injFile) Sync() error {
	pl := f.inj.step(OpSync, f.path, 0, true)
	if pl.err != nil {
		if pl.partial > 0 {
			f.in.Sync()
		}
		return pl.err
	}
	return f.in.Sync()
}

// Truncate implements File.
func (f *injFile) Truncate(size int64) error {
	pl := f.inj.step(OpTruncate, f.path, 0, true)
	if pl.err != nil {
		if pl.partial > 0 {
			f.in.Truncate(size)
		}
		return pl.err
	}
	return f.in.Truncate(size)
}

// Stat implements File; metadata only, gated on the crashed state.
func (f *injFile) Stat() (fs.FileInfo, error) {
	if err := f.inj.checkAlive(OpOpen, f.path); err != nil {
		return nil, err
	}
	return f.in.Stat()
}

// Name implements File.
func (f *injFile) Name() string { return f.in.Name() }

// Close implements File. The inner handle is always closed (a crashed
// test process must not leak descriptors), but a crashed world still
// reports the crash so cleanup paths see the stop too.
func (f *injFile) Close() error {
	err := f.in.Close()
	if cerr := f.inj.checkAlive(OpOpen, f.path); cerr != nil {
		return cerr
	}
	return err
}

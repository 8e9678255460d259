package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"

	"parbor/internal/faultfs"
)

// timingFS is the faultfs.FS the fleet workloads hand to
// fleet.Config.FS. It passes every call through to the real filesystem
// and accounts the event log's I/O from outside: it counts segment
// appends and the classifier's spill runs, and in a traced run it
// records a span for every segment write, fsync and read and every
// spill-run write and read. Files are told apart by name, as fleetlog
// names them: segments end in ".seg", spill runs in ".run".
type timingFS struct {
	base faultfs.FS
	tr   *tracer
	// parent is the span that I/O spans are recorded under.
	parent atomic.Int64

	appends, appendBytes  atomic.Int64
	readBytes             atomic.Int64
	spillRuns, spillBytes atomic.Int64
	// lastSegClose is the tracer time at which a segment opened for
	// reading was last closed: the end of a log scan.
	lastSegClose atomic.Int64
}

var _ faultfs.FS = (*timingFS)(nil)

func newTimingFS(tr *tracer) *timingFS { return &timingFS{base: faultfs.OS{}, tr: tr} }

// fsStats is a snapshot of the counters.
type fsStats struct {
	appends, appendBytes  int64
	readBytes             int64
	spillRuns, spillBytes int64
}

func (f *timingFS) stats() fsStats {
	return fsStats{
		appends: f.appends.Load(), appendBytes: f.appendBytes.Load(),
		readBytes: f.readBytes.Load(),
		spillRuns: f.spillRuns.Load(), spillBytes: f.spillBytes.Load(),
	}
}

type fileKind uint8

const (
	kindOther fileKind = iota
	kindSegment
	kindSpill
)

func kindOf(name string) fileKind {
	switch filepath.Ext(name) {
	case ".seg":
		return kindSegment
	case ".run":
		return kindSpill
	}
	return kindOther
}

func (f *timingFS) wrap(file faultfs.File, name string, reading bool) faultfs.File {
	k := kindOf(name)
	if k == kindOther {
		return file
	}
	if k == kindSpill && !reading {
		f.spillRuns.Add(1)
	}
	return &timedFile{File: file, fs: f, kind: k, reading: reading}
}

// Open implements faultfs.FS.
func (f *timingFS) Open(name string) (faultfs.File, error) {
	file, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(file, name, true), nil
}

// Create implements faultfs.FS.
func (f *timingFS) Create(name string) (faultfs.File, error) {
	file, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(file, name, false), nil
}

// OpenFile implements faultfs.FS.
func (f *timingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f.wrap(file, name, flag&(os.O_WRONLY|os.O_RDWR) == 0), nil
}

// ReadFile implements faultfs.FS.
func (f *timingFS) ReadFile(name string) ([]byte, error) { return f.base.ReadFile(name) }

// WriteFile implements faultfs.FS.
func (f *timingFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return f.base.WriteFile(name, data, perm)
}

// Rename implements faultfs.FS.
func (f *timingFS) Rename(oldpath, newpath string) error { return f.base.Rename(oldpath, newpath) }

// Remove implements faultfs.FS.
func (f *timingFS) Remove(name string) error { return f.base.Remove(name) }

// ReadDir implements faultfs.FS.
func (f *timingFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.base.ReadDir(name) }

// MkdirAll implements faultfs.FS.
func (f *timingFS) MkdirAll(path string, perm fs.FileMode) error { return f.base.MkdirAll(path, perm) }

// SyncDir implements faultfs.FS.
func (f *timingFS) SyncDir(name string) error { return f.base.SyncDir(name) }

// timedFile accounts one segment or spill-run handle.
type timedFile struct {
	faultfs.File
	fs      *timingFS
	kind    fileKind
	reading bool
}

// start returns the tracer time before a call, or 0 when untraced.
func (f *timedFile) start() int64 {
	if f.fs.tr == nil {
		return 0
	}
	return f.fs.tr.now()
}

// span records a call that began at t0 (from start).
func (f *timedFile) span(name string, t0 int64) {
	if tr := f.fs.tr; tr != nil {
		tr.add(f.fs.parent.Load(), name, "", t0, tr.now())
	}
}

func (f *timedFile) Read(p []byte) (int, error) {
	t0 := f.start()
	n, err := f.File.Read(p)
	if f.kind == kindSegment {
		f.fs.readBytes.Add(int64(n))
		f.span("fleetlog.read", t0)
	} else {
		f.span("fleetlog.spill_read", t0)
	}
	return n, err
}

func (f *timedFile) Write(p []byte) (int, error) {
	t0 := f.start()
	n, err := f.File.Write(p)
	f.accountWrite(n, t0)
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := f.start()
	n, err := f.File.WriteAt(p, off)
	f.accountWrite(n, t0)
	return n, err
}

func (f *timedFile) accountWrite(n int, t0 int64) {
	if f.kind == kindSegment {
		f.fs.appends.Add(1)
		f.fs.appendBytes.Add(int64(n))
		f.span("fleetlog.write", t0)
		return
	}
	f.fs.spillBytes.Add(int64(n))
	f.span("fleetlog.spill_write", t0)
}

func (f *timedFile) Sync() error {
	t0 := f.start()
	err := f.File.Sync()
	f.span("fleetlog.sync", t0)
	return err
}

func (f *timedFile) Close() error {
	err := f.File.Close()
	if f.kind == kindSegment && f.reading && f.fs.tr != nil {
		f.fs.lastSegClose.Store(f.fs.tr.now())
	}
	return err
}

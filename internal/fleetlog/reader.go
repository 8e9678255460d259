package fleetlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"parbor/internal/faultfs"
)

// errSegEnd is the clean end of a segment: the last record closed
// exactly at end of file.
var errSegEnd = errors.New("fleetlog: end of segment")

// errTorn marks a torn tail: the bytes from cleanLen to the end of
// the file are a partial record (or a partial segment header), the
// signature of a crash mid-write. Everything before cleanLen was
// recovered.
type errTorn struct{ cleanLen int64 }

func (e errTorn) Error() string {
	return fmt.Sprintf("fleetlog: torn record after clean offset %d", e.cleanLen)
}

// Truncation reports one recovered torn tail.
type Truncation struct {
	// Segment is the damaged segment's filename.
	Segment string `json:"segment"`
	// CleanBytes is the length of the intact prefix; everything after
	// it was discarded.
	CleanBytes int64 `json:"clean_bytes"`
}

// segReader streams one segment's record payloads without ever
// holding more than one record in memory.
type segReader struct {
	name string // the segment's filename, for error messages
	f    faultfs.File
	br   *bufio.Reader
	size int64 // file size at open
	off  int64 // offset of the next unread record
	buf  []byte
}

// openSegment opens a segment and validates its header. A file too
// short to hold the header is reported as torn (a crash can tear the
// header write itself); a file with the wrong magic or version is
// corrupt — it was never a fleetlog segment, and recovery must not
// quietly eat it.
func openSegment(fsys faultfs.FS, path string) (*segReader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	sr := &segReader{name: filepath.Base(path), f: f, br: bufio.NewReader(f), size: st.Size()}
	hdr := make([]byte, segHeaderLen)
	if _, err := io.ReadFull(sr.br, hdr); err != nil {
		if isInjectedFault(err) {
			f.Close()
			return nil, fmt.Errorf("fleetlog: reading %s header: %w", filepath.Base(path), err)
		}
		// Shorter than a header: everything is a torn prefix, but if
		// the bytes present disagree with the header they are not a
		// tear, they are a different file.
		if !bytes.HasPrefix(segHeader(), hdr[:sr.size]) {
			f.Close()
			return nil, fmt.Errorf("fleetlog: %s: not a fleetlog segment", filepath.Base(path))
		}
		return sr, nil // off stays 0: next() reports the tear
	}
	if string(hdr[:len(segMagic)]) != segMagic {
		f.Close()
		return nil, fmt.Errorf("fleetlog: %s: bad magic %q", filepath.Base(path), hdr[:len(segMagic)])
	}
	if hdr[len(segMagic)] != segVersion {
		f.Close()
		return nil, fmt.Errorf("fleetlog: %s: unsupported version %d", filepath.Base(path), hdr[len(segMagic)])
	}
	sr.off = int64(segHeaderLen)
	return sr, nil
}

// next returns the next record's payload (valid until the following
// call), errSegEnd at a clean end of segment, an errTorn for a torn
// tail, or a corruption error. The returned payload has already
// passed its checksum.
func (sr *segReader) next() ([]byte, error) {
	if sr.off == 0 {
		// Header itself was torn (see openSegment).
		return nil, errTorn{cleanLen: 0}
	}
	if sr.off == sr.size {
		return nil, errSegEnd
	}
	// Read the length varint byte by byte, counting what was actually
	// consumed: hdrLen must reflect the on-disk bytes, not a canonical
	// re-encoding, or the offset bookkeeping drifts on a hand-mangled
	// (non-minimal) length and mislabels the rest of the segment.
	var (
		plen   uint64
		hdrLen int64
	)
	for shift := uint(0); ; shift += 7 {
		b, err := sr.br.ReadByte()
		if err != nil {
			if isInjectedFault(err) {
				return nil, fmt.Errorf("fleetlog: reading record length at offset %d: %w", sr.off, err)
			}
			// A truncated varint cannot decode to a different valid
			// value — the last surviving byte still has its
			// continuation bit — so a failure here is a tear, not
			// corruption.
			return nil, errTorn{cleanLen: sr.off}
		}
		hdrLen++
		if shift > 56 {
			return nil, fmt.Errorf("fleetlog: record length varint at offset %d overflows", sr.off)
		}
		plen |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			break
		}
	}
	if plen == 0 {
		// No record has an empty payload (a module id alone is four
		// bytes). A zero length byte is the signature of a journaling
		// filesystem zero-filling a torn tail after a crash.
		return nil, errTorn{cleanLen: sr.off}
	}
	if plen > maxRecordBytes {
		return nil, fmt.Errorf("fleetlog: record at offset %d claims %d bytes", sr.off, plen)
	}
	if sr.off+hdrLen+int64(plen)+4 > sr.size {
		// The frame extends past the end of the file: torn tail. The
		// allocation below is bounded by this check — a hostile length
		// never allocates more than the file actually holds.
		return nil, errTorn{cleanLen: sr.off}
	}
	need := int(plen) + 4
	if cap(sr.buf) < need {
		sr.buf = make([]byte, need)
	}
	buf := sr.buf[:need]
	if _, err := io.ReadFull(sr.br, buf); err != nil {
		if isInjectedFault(err) {
			return nil, fmt.Errorf("fleetlog: reading record at offset %d: %w", sr.off, err)
		}
		return nil, errTorn{cleanLen: sr.off}
	}
	payload := buf[:plen]
	want := binary.LittleEndian.Uint32(buf[plen:])
	if crc32.ChecksumIEEE(payload) != want {
		if sr.off+hdrLen+int64(plen)+4 == sr.size {
			// Checksum of the final record does not match: the payload
			// bytes themselves were torn. Recoverable.
			return nil, errTorn{cleanLen: sr.off}
		}
		return nil, fmt.Errorf("fleetlog: checksum mismatch at offset %d", sr.off)
	}
	sr.off += hdrLen + int64(plen) + 4
	return payload, nil
}

// event decodes the next record into ev. It returns errSegEnd at a
// clean end of segment, an errTorn for a torn tail, and any other
// failure (corruption, an undecodable payload, a failed read) wrapped
// with the segment's name.
func (sr *segReader) event(ev *Event) error {
	payload, err := sr.next()
	if _, torn := err.(errTorn); torn || err == errSegEnd {
		return err
	}
	if err == nil {
		err = decodeEventInto(payload, ev)
	}
	if err != nil {
		return fmt.Errorf("fleetlog: %s: %w", sr.name, err)
	}
	return nil
}

func (sr *segReader) close() error { return sr.f.Close() }

// isInjectedFault distinguishes an injected device fault (read EIO, a
// crashed world) from a genuinely short file. An unreadable sector is
// a hard error, not a torn tail: recovery must not truncate good data
// it merely failed to read.
func isInjectedFault(err error) bool {
	var oe *faultfs.OpError
	return errors.As(err, &oe)
}

// Iter streams a log directory's events in segment order, one record
// at a time. Torn tails are recovered, recorded, and skipped; they
// never corrupt the stream. An Iter may read a directory that a
// Writer is appending to — at worst it sees the current segment's
// half-written last record as a (transient) truncation.
type Iter struct {
	fsys    faultfs.FS
	dir     string
	pending []string
	cur     *segReader
	truncs  []Truncation
	events  int
}

// OpenIter opens a log directory on fsys (faultfs.OS{} for the real
// filesystem) for streaming. A directory with no segments yields
// io.EOF immediately.
func OpenIter(fsys faultfs.FS, dir string) (*Iter, error) {
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("fleetlog: listing log dir: %w", err)
	}
	return &Iter{fsys: fsys, dir: dir, pending: segs}, nil
}

// Next returns the next event, or io.EOF when the log is exhausted.
// Any other error is a hard corruption the log cannot stream past.
// Each returned event is freshly allocated and owned by the caller.
func (it *Iter) Next() (Event, error) {
	var ev Event
	if err := it.nextInto(&ev); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// nextInto is Next decoding into a caller-owned event whose storage it
// reuses (see decodeEventInto): the allocation-free path for consumers
// that do not retain events.
func (it *Iter) nextInto(ev *Event) error {
	for {
		if it.cur == nil {
			if len(it.pending) == 0 {
				return io.EOF
			}
			name := it.pending[0]
			it.pending = it.pending[1:]
			sr, err := openSegment(it.fsys, filepath.Join(it.dir, name))
			if err != nil {
				return err
			}
			it.cur = sr
		}
		err := it.cur.event(ev)
		if err == nil {
			it.events++
			return nil
		}
		if e, torn := err.(errTorn); torn {
			it.truncs = append(it.truncs, Truncation{Segment: it.cur.name, CleanBytes: e.cleanLen})
		} else if err != errSegEnd {
			it.closeCur()
			return err
		}
		it.closeCur()
	}
}

func (it *Iter) closeCur() {
	if it.cur != nil {
		it.cur.close()
		it.cur = nil
	}
}

// Truncations lists the torn tails recovered so far (complete once
// Next has returned io.EOF).
func (it *Iter) Truncations() []Truncation { return it.truncs }

// Events returns how many events have been decoded so far.
func (it *Iter) Events() int { return it.events }

// Close releases the iterator's open segment, if any.
func (it *Iter) Close() error {
	it.closeCur()
	return nil
}

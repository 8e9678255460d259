package fleetlog

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"parbor/internal/memctl"
)

// Codec limits. Module IDs are fleet IDs (max 128 chars there), but
// the decoder is defensive on its own: these caps bound what a hostile
// or corrupt payload can make it allocate, in the same discipline as
// internal/trace.
const (
	// maxModuleID bounds the module-id length a payload may claim.
	maxModuleID = 4096
	// maxRecordBytes bounds one framed record's payload. A record is
	// one epoch of one small simulated module; even a pathological
	// million-failure epoch encodes far below this.
	maxRecordBytes = 64 << 20
)

// appendZigzag appends v in zigzag-uvarint form: small magnitudes of
// either sign encode in one byte, which is what field deltas of a
// sorted failure list look like.
func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v)<<1^uint64(v>>63))
}

// zigzag decodes the zigzag transform.
func zigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// AppendEvent appends ev's canonical payload encoding to dst and
// returns the extended slice. The failure list is written in canonical
// ascending order — sorting a copy if the caller's slice is not
// already sorted — so encoding is a pure function of the event's
// failure *set* and decode→re-encode is byte-identical.
func AppendEvent(dst []byte, ev Event) ([]byte, error) {
	if len(ev.Module) == 0 || len(ev.Module) > maxModuleID {
		return dst, fmt.Errorf("fleetlog: module id length %d (want 1..%d)", len(ev.Module), maxModuleID)
	}
	if ev.Epoch < 0 {
		return dst, fmt.Errorf("fleetlog: negative epoch %d", ev.Epoch)
	}
	fails := ev.Fails
	if !slices.IsSortedFunc(fails, memctl.CompareAddrs) {
		fails = slices.Clone(fails)
		slices.SortFunc(fails, memctl.CompareAddrs)
	}
	dst = binary.AppendUvarint(dst, uint64(len(ev.Module)))
	dst = append(dst, ev.Module...)
	dst = binary.AppendUvarint(dst, uint64(ev.Epoch))
	dst = binary.AppendUvarint(dst, uint64(len(fails)))
	var prev memctl.BitAddr
	for _, f := range fails {
		dst = appendZigzag(dst, int64(f.Chip)-int64(prev.Chip))
		dst = appendZigzag(dst, int64(f.Bank)-int64(prev.Bank))
		dst = appendZigzag(dst, int64(f.Row)-int64(prev.Row))
		dst = appendZigzag(dst, int64(f.Col)-int64(prev.Col))
		prev = f
	}
	return dst, nil
}

// payloadCursor walks a payload without ever reading past it.
type payloadCursor struct {
	p   []byte
	off int
}

func (c *payloadCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.p[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("fleetlog: truncated or oversized varint at payload offset %d", c.off)
	}
	// Minimal encoding is part of the format: a varint whose final
	// byte is zero (n > 1) spends a byte saying nothing, so the same
	// value would have two accepted encodings and decode→re-encode
	// would not be byte-identical.
	if n > 1 && c.p[c.off+n-1] == 0 {
		return 0, fmt.Errorf("fleetlog: non-minimal varint at payload offset %d", c.off)
	}
	c.off += n
	return v, nil
}

// delta applies a zigzag delta to prev with explicit overflow and
// range checks: a hostile payload must produce an error, never a
// silently wrapped coordinate.
func (c *payloadCursor) delta(prev int64, lo, hi int64, field string) (int64, error) {
	u, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	d := zigzag(u)
	if d > 0 && prev > math.MaxInt64-d || d < 0 && prev < math.MinInt64-d {
		return 0, fmt.Errorf("fleetlog: %s delta overflows", field)
	}
	v := prev + d
	if v < lo || v > hi {
		return 0, fmt.Errorf("fleetlog: %s %d out of range [%d, %d]", field, v, lo, hi)
	}
	return v, nil
}

// DecodeEvent decodes one payload produced by AppendEvent. It rejects
// payloads with trailing garbage, implausible lengths, or
// out-of-range coordinates, and its allocations are bounded by the
// payload size regardless of what the header claims.
func DecodeEvent(p []byte) (Event, error) {
	var ev Event
	if err := decodeEventInto(p, &ev); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// decodeEventInto is DecodeEvent into a caller-owned event, reusing
// its Fails array and, when the module id is unchanged, its Module
// string, so a stream of events decodes without allocating per event.
// On error ev holds garbage.
func decodeEventInto(p []byte, ev *Event) error {
	c := payloadCursor{p: p}
	idLen, err := c.uvarint()
	if err != nil {
		return err
	}
	if idLen == 0 || idLen > maxModuleID || idLen > uint64(len(p)-c.off) {
		return fmt.Errorf("fleetlog: implausible module id length %d", idLen)
	}
	if id := p[c.off : c.off+int(idLen)]; ev.Module != string(id) {
		ev.Module = string(id)
	}
	c.off += int(idLen)
	epoch, err := c.uvarint()
	if err != nil {
		return err
	}
	if epoch > math.MaxInt64 {
		return fmt.Errorf("fleetlog: epoch %d out of range", epoch)
	}
	ev.Epoch = int(epoch)
	count, err := c.uvarint()
	if err != nil {
		return err
	}
	// Each failure needs at least four varint bytes, so the claimed
	// count is bounded by the remaining payload: a short payload
	// claiming 2^40 failures must not allocate for them.
	if count > uint64(len(p)-c.off)/4 {
		return fmt.Errorf("fleetlog: failure count %d exceeds payload capacity", count)
	}
	ev.Fails = ev.Fails[:0]
	if count > uint64(cap(ev.Fails)) {
		ev.Fails = make([]memctl.BitAddr, 0, count)
	}
	var prev memctl.BitAddr
	for i := uint64(0); i < count; i++ {
		chip, err := c.delta(int64(prev.Chip), math.MinInt16, math.MaxInt16, "chip")
		if err != nil {
			return fmt.Errorf("fleetlog: failure %d: %w", i, err)
		}
		bank, err := c.delta(int64(prev.Bank), math.MinInt16, math.MaxInt16, "bank")
		if err != nil {
			return fmt.Errorf("fleetlog: failure %d: %w", i, err)
		}
		row, err := c.delta(int64(prev.Row), math.MinInt32, math.MaxInt32, "row")
		if err != nil {
			return fmt.Errorf("fleetlog: failure %d: %w", i, err)
		}
		col, err := c.delta(int64(prev.Col), math.MinInt32, math.MaxInt32, "col")
		if err != nil {
			return fmt.Errorf("fleetlog: failure %d: %w", i, err)
		}
		a := memctl.BitAddr{Chip: int16(chip), Bank: int16(bank), Row: int32(row), Col: int32(col)}
		// Canonical order is part of the format: every accepted
		// payload re-encodes to the identical bytes, so compaction
		// and replication can compare records without decoding.
		if i > 0 && memctl.CompareAddrs(a, prev) < 0 {
			return fmt.Errorf("fleetlog: failure %d out of canonical order", i)
		}
		ev.Fails = append(ev.Fails, a)
		prev = a
	}
	if c.off != len(p) {
		return fmt.Errorf("fleetlog: %d trailing bytes after event payload", len(p)-c.off)
	}
	return nil
}

package fleetlog

import (
	"encoding/binary"
	"fmt"
	"math"

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

// appendEvent appends ev's canonical payload encoding to dst and
// returns the extended slice. The failure list goes through
// memctl.AppendAddrs, which writes the set in canonical order, so
// encoding is a pure function of the event's failure *set* and
// decode→re-encode is byte-identical.
func appendEvent(dst []byte, ev Event) ([]byte, error) {
	if len(ev.Module) == 0 || len(ev.Module) > maxModuleID {
		return dst, fmt.Errorf("fleetlog: module id length %d (want 1..%d)", len(ev.Module), maxModuleID)
	}
	if ev.Epoch < 0 {
		return dst, fmt.Errorf("fleetlog: negative epoch %d", ev.Epoch)
	}
	dst = binary.AppendUvarint(dst, uint64(len(ev.Module)))
	dst = append(dst, ev.Module...)
	dst = binary.AppendUvarint(dst, uint64(ev.Epoch))
	return memctl.AppendAddrs(dst, ev.Fails), nil
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

// decodeEventInto decodes one payload produced by appendEvent into a
// caller-owned event. It rejects payloads with trailing garbage,
// implausible lengths, or a failure list memctl.DecodeAddrs refuses,
// and its allocations are bounded by the payload size regardless of
// what the header claims. It reuses ev's Fails array and, when the
// module id is unchanged, its Module string, so a stream of events
// decodes without allocating per event. On error ev holds garbage.
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
	if ev.Fails, err = memctl.DecodeAddrs(p[c.off:], ev.Fails); err != nil {
		return fmt.Errorf("fleetlog: %w", err)
	}
	return nil
}

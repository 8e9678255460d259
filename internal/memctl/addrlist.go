package memctl

import (
	"cmp"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// CompareAddrs orders cells canonically by (chip, bank, row, col): the
// order FullPass reports failures in, and the one every failure list
// that is compared, merged or serialized is kept in. It returns -1, 0
// or +1 in the manner of cmp.Compare.
func CompareAddrs(a, b BitAddr) int {
	if c := cmp.Compare(a.Chip, b.Chip); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Bank, b.Bank); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Row, b.Row); c != 0 {
		return c
	}
	return cmp.Compare(a.Col, b.Col)
}

// The failure-list codec. A list encodes as
//
//	count (uvarint) | per cell, four zigzag-uvarint deltas
//	                  (chip, bank, row, col) from the previous cell
//
// with the cells in canonical order and distinct, so neighbouring
// cells of a sorted list mostly cost one byte per field. It is the
// tail of every fleetlog event record and, base64-wrapped, the
// failure sets of a parbor/checkpoint/v2 snapshot.

// AppendAddrs appends the encoding of the cell set addrs to dst. A list
// that is not sorted and distinct is canonicalized in a copy, so the
// bytes depend only on the set and decode→re-encode is byte-identical.
func AppendAddrs(dst []byte, addrs []BitAddr) []byte {
	if !canonical(addrs) {
		addrs = slices.Clone(addrs)
		slices.SortFunc(addrs, CompareAddrs)
		addrs = slices.Compact(addrs)
	}
	dst = binary.AppendUvarint(dst, uint64(len(addrs)))
	var prev BitAddr
	for _, a := range addrs {
		dst = appendZigzag(dst, int64(a.Chip)-int64(prev.Chip))
		dst = appendZigzag(dst, int64(a.Bank)-int64(prev.Bank))
		dst = appendZigzag(dst, int64(a.Row)-int64(prev.Row))
		dst = appendZigzag(dst, int64(a.Col)-int64(prev.Col))
		prev = a
	}
	return dst
}

// canonical reports whether addrs is strictly ascending.
func canonical(addrs []BitAddr) bool {
	for i := 1; i < len(addrs); i++ {
		if CompareAddrs(addrs[i-1], addrs[i]) >= 0 {
			return false
		}
	}
	return true
}

// appendZigzag appends v in zigzag-uvarint form: small magnitudes of
// either sign encode in one byte.
func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v)<<1^uint64(v>>63))
}

// DecodeAddrs decodes p, which must hold exactly one AppendAddrs
// encoding, into dst's array (reused when it is large enough) and
// returns the list. It accepts only what AppendAddrs writes: minimal
// varints, coordinates in their field's range, cells strictly
// ascending, and no bytes after the last cell. What it allocates is
// bounded by len(p), whatever count the header claims.
func DecodeAddrs(p []byte, dst []BitAddr) ([]BitAddr, error) {
	r := addrReader{p: p}
	count, err := r.uvarint()
	if err != nil {
		return dst[:0], err
	}
	// Each cell needs at least four bytes, so a short list claiming
	// 2^40 cells must not allocate for them.
	if count > uint64(len(p)-r.off)/4 {
		return dst[:0], fmt.Errorf("memctl: failure count %d exceeds the %d encoded bytes", count, len(p))
	}
	dst = dst[:0]
	if count > uint64(cap(dst)) {
		dst = make([]BitAddr, 0, count)
	}
	var prev BitAddr
	for i := uint64(0); i < count; i++ {
		chip, err := r.field(int64(prev.Chip), math.MinInt16, math.MaxInt16, "chip")
		if err != nil {
			return dst, fmt.Errorf("memctl: failure %d: %w", i, err)
		}
		bank, err := r.field(int64(prev.Bank), math.MinInt16, math.MaxInt16, "bank")
		if err != nil {
			return dst, fmt.Errorf("memctl: failure %d: %w", i, err)
		}
		row, err := r.field(int64(prev.Row), math.MinInt32, math.MaxInt32, "row")
		if err != nil {
			return dst, fmt.Errorf("memctl: failure %d: %w", i, err)
		}
		col, err := r.field(int64(prev.Col), math.MinInt32, math.MaxInt32, "col")
		if err != nil {
			return dst, fmt.Errorf("memctl: failure %d: %w", i, err)
		}
		a := BitAddr{Chip: int16(chip), Bank: int16(bank), Row: int32(row), Col: int32(col)}
		if i > 0 && CompareAddrs(prev, a) >= 0 {
			return dst, fmt.Errorf("memctl: failure %d is not after its predecessor in canonical order", i)
		}
		dst = append(dst, a)
		prev = a
	}
	if r.off != len(p) {
		return dst, fmt.Errorf("memctl: %d trailing bytes after the failure list", len(p)-r.off)
	}
	return dst, nil
}

// addrReader walks an encoded failure list without reading past it.
type addrReader struct {
	p   []byte
	off int
}

func (r *addrReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.p[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("memctl: truncated or oversized varint at offset %d", r.off)
	}
	// A varint whose last byte is zero (n > 1) has a shorter encoding
	// of the same value; accepting both would break decode→re-encode
	// identity.
	if n > 1 && r.p[r.off+n-1] == 0 {
		return 0, fmt.Errorf("memctl: non-minimal varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// field applies one zigzag delta to prev, with explicit overflow and
// range checks: a hostile encoding gets an error, never a silently
// wrapped coordinate.
func (r *addrReader) field(prev, lo, hi int64, name string) (int64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	d := int64(u>>1) ^ -int64(u&1)
	if d > 0 && prev > math.MaxInt64-d || d < 0 && prev < math.MinInt64-d {
		return 0, fmt.Errorf("%s delta overflows", name)
	}
	v := prev + d
	if v < lo || v > hi {
		return 0, fmt.Errorf("%s %d out of range [%d, %d]", name, v, lo, hi)
	}
	return v, nil
}

// AddrList is a failure set that marshals as text — and so as a JSON
// string — in the base64 of its AppendAddrs encoding: a checkpoint's
// failure sets cost a few bytes per cell instead of a JSON object each.
type AddrList []BitAddr

// MarshalText implements encoding.TextMarshaler.
func (l AddrList) MarshalText() ([]byte, error) {
	return base64.StdEncoding.AppendEncode(nil, AppendAddrs(nil, l)), nil
}

// UnmarshalText implements encoding.TextUnmarshaler, with
// DecodeAddrs's strictness.
func (l *AddrList) UnmarshalText(text []byte) error {
	enc := base64.StdEncoding.Strict()
	p, err := enc.DecodeString(string(text))
	if err != nil {
		return fmt.Errorf("memctl: failure list: %w", err)
	}
	// The decoder skips line breaks; a canonical text has none.
	if enc.EncodedLen(len(p)) != len(text) {
		return fmt.Errorf("memctl: failure list: line breaks in base64 text")
	}
	*l, err = DecodeAddrs(p, []BitAddr{})
	return err
}

package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"parbor/internal/memctl"
)

// Checksum hashes the failure set order-independently: FNV-64a over
// the addresses in canonical order (memctl.CompareAddrs) in a
// fixed-width encoding, rendered as 16 hex digits. Two sets are equal
// iff their checksums match (up to hash collision), which is how the
// golden regression pins failure populations and how checkpoint/resume
// equivalence is asserted without shipping full address lists around.
func (s FailureSet) Checksum() string {
	addrs := make([]memctl.BitAddr, 0, len(s))
	for a := range s {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, memctl.CompareAddrs)
	h := fnv.New64a()
	var buf [12]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint16(buf[0:2], uint16(a.Chip))
		binary.LittleEndian.PutUint16(buf[2:4], uint16(a.Bank))
		binary.LittleEndian.PutUint32(buf[4:8], uint32(a.Row))
		binary.LittleEndian.PutUint32(buf[8:12], uint32(a.Col))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

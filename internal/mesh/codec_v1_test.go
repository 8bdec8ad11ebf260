package mesh

import (
	"encoding/binary"
	"math"
)

// appendEncodeV1 writes the version-1 encoding — raw coordinates, then one
// running zig-zag varint delta over all triangle corners. Nothing outside
// the tests writes it any more; it exists to build inputs for the decoder,
// which must keep reading every archive written before version 2.
func appendEncodeV1(dst []byte, m *Mesh) []byte {
	var hdr [6]byte
	binary.LittleEndian.PutUint32(hdr[0:4], meshMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], 1)
	dst = append(dst, hdr[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(m.Verts)))
	dst = binary.AppendUvarint(dst, uint64(len(m.Tris)))
	for _, v := range m.Verts {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Y))
	}
	prev := int64(0)
	for _, t := range m.Tris {
		for k := 0; k < 3; k++ {
			dst = binary.AppendVarint(dst, int64(t[k])-prev)
			prev = int64(t[k])
		}
	}
	return dst
}

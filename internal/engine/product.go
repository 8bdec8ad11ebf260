package engine

import "fmt"

// Kind classifies the artifacts Canopus stores and retrieves. Every kind
// maps to a fixed BP variable naming scheme, so the write and read paths
// agree on container layout through one descriptor instead of scattering
// name strings across the codebase.
type Kind uint8

const (
	// KindMesh is a level's decimated mesh geometry (lossless; CMSH
	// version 2 compresses its own byte planes).
	KindMesh Kind = iota
	// KindMapping is a level's vertex->coarse-triangle mapping
	// (losslessly deflated).
	KindMapping
	// KindData is a level's compressed field payload (the base level, or
	// every level in direct mode).
	KindData
	// KindDelta is one spatial tile of a level's compressed delta
	// payload.
	KindDelta
)

func (k Kind) String() string {
	switch k {
	case KindMesh:
		return "mesh"
	case KindMapping:
		return "mapping"
	case KindData:
		return "data"
	case KindDelta:
		return "delta"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Product is the unified descriptor for one stored artifact: which accuracy
// level it belongs to, what it is, how its payload was encoded, and the
// payload bytes themselves. The write step turns Products into BP variables
// and the read path turns BP variables back into Products.
type Product struct {
	// Level is the accuracy level (0 = finest).
	Level int
	// Kind classifies the artifact.
	Kind Kind
	// Chunk is the spatial tile index for KindDelta products; 0
	// otherwise.
	Chunk int
	// Codec names the floating-point codec for KindData/KindDelta
	// payloads and the geometry encoding for KindMesh; empty for
	// losslessly-deflated mappings (and geometry in old archives).
	Codec string
	// Payload is the encoded bytes.
	Payload []byte
}

// VarName is the BP variable name the product is stored under.
func (p Product) VarName() string {
	if p.Kind == KindDelta {
		return fmt.Sprintf("delta.c%d", p.Chunk)
	}
	return p.Kind.String()
}

// Attrs returns the BP variable attributes for the product (the codec
// tag), or nil.
func (p Product) Attrs() map[string]string {
	if p.Codec == "" {
		return nil
	}
	return map[string]string{"codec": p.Codec}
}

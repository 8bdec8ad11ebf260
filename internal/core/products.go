package core

import (
	"context"
	"fmt"

	"repro/internal/adios"
	"repro/internal/bp"
	"repro/internal/compress"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/mesh"
)

// Product plumbing. Every artifact Canopus moves between its write and read
// steps and storage — mesh geometry, vertex mappings, level data, delta
// tiles — is described by an engine.Product, and this file is the single
// place that maps products onto BP containers. The write step (refactor.go)
// emits products and assembles them into containers here; the read paths
// (retrieve.go, region.go) fetch variables back as products.

// assembleContainer writes products into a fresh BP container in the order
// given; attrs become file-level attributes. Writers pass products in the
// canonical order — mesh geometry, then the data payload, then delta tiles
// in ascending tile order, then the mapping — which is part of the stored
// format.
func assembleContainer(products []engine.Product, attrs map[string]string) (*bp.Writer, error) {
	w := bp.NewWriter()
	for k, v := range attrs {
		w.SetAttr(k, v)
	}
	for _, p := range products {
		if err := w.PutBytes(p.VarName(), p.Level, p.Payload, p.Attrs()); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// fetchProduct selectively reads one product's payload from an open
// container, charging only its extent.
func fetchProduct(h *adios.Handle, level int, kind engine.Kind, chunk int) (engine.Product, error) {
	p := engine.Product{Level: level, Kind: kind, Chunk: chunk}
	payload, err := h.ReadBytes(p.VarName(), level)
	if err != nil {
		return engine.Product{}, err
	}
	p.Payload = payload
	if v, ok := h.InqVar(p.VarName(), level); ok {
		p.Codec = v.Attrs["codec"]
	}
	return p, nil
}

// meshCodecV2 tags a geometry variable holding a CMSH version-2 encoding
// as written (internal/mesh/codec.go compresses its own planes). Archives
// from before version 2 carry no tag: their geometry is a version-1
// encoding inside an outer DEFLATE.
const meshCodecV2 = "cmsh2"

// inflateProduct inflates a losslessly-deflated metadata payload: a mapping,
// or geometry in an archive that predates CMSH version 2.
func inflateProduct(p engine.Product) ([]byte, error) {
	// Varint-coded ids and version-1 geometry inflate to between 1.1 and
	// 3.0 times their stored size, so this destination is rarely grown.
	raw, err := compress.InflateAppend(make([]byte, 0, 3*len(p.Payload)+64), p.Payload)
	if err != nil {
		return nil, fmt.Errorf("canopus: inflate %s %d: %w", p.Kind, p.Level, err)
	}
	return raw, nil
}

// fetchMapping reads and decodes a level's vertex→coarse-triangle mapping.
func fetchMapping(h *adios.Handle, l int) (delta.Mapping, error) {
	p, err := fetchProduct(h, l, engine.KindMapping, 0)
	if err != nil {
		return nil, err
	}
	raw, err := inflateProduct(p)
	if err != nil {
		return nil, err
	}
	mp, _, err := delta.DecodeMapping(raw)
	if err != nil {
		return nil, fmt.Errorf("canopus: mapping %d: %w", l, err)
	}
	return mp, nil
}

// fetchMesh reads and decodes a level's mesh geometry, its independent
// planes decoded on pool.
func fetchMesh(ctx context.Context, pool *engine.Pool, h *adios.Handle, l int) (*mesh.Mesh, error) {
	p, err := fetchProduct(h, l, engine.KindMesh, 0)
	if err != nil {
		return nil, err
	}
	raw := p.Payload
	switch p.Codec {
	case meshCodecV2:
	case "":
		if raw, err = inflateProduct(p); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("canopus: mesh %d: unknown geometry codec %q", l, p.Codec)
	}
	m, n, err := mesh.DecodeOn(ctx, pool, raw)
	if err != nil {
		return nil, fmt.Errorf("canopus: decode mesh %d: %w", l, err)
	}
	if n != len(raw) {
		return nil, fmt.Errorf("canopus: decode mesh %d: %d bytes after the encoding", l, len(raw)-n)
	}
	return m, nil
}

// meshProduct encodes a level's mesh geometry as a product.
func meshProduct(l int, m *mesh.Mesh) engine.Product {
	return engine.Product{Level: l, Kind: engine.KindMesh, Codec: meshCodecV2, Payload: mesh.Encode(m)}
}

// mappingProduct encodes a level's vertex→coarse-triangle mapping as a
// product.
func mappingProduct(l int, mp delta.Mapping) (engine.Product, error) {
	payload, err := compress.DeflateAppend(nil, mp.Encode())
	if err != nil {
		return engine.Product{}, fmt.Errorf("canopus: deflate mapping %d: %w", l, err)
	}
	return engine.Product{Level: l, Kind: engine.KindMapping, Payload: payload}, nil
}

package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// validateReference is the map-based Validate that the bucketed one
// replaced; it defines the violation each input must report.
func validateReference(m *Mesh) error {
	for v, p := range m.Verts {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("mesh: vertex %d has a non-finite coordinate (%g, %g)", v, p.X, p.Y)
		}
	}
	n := int32(len(m.Verts))
	used := make([]bool, n)
	seen := make(map[[3]int32]struct{}, len(m.Tris))
	for ti, t := range m.Tris {
		for k := 0; k < 3; k++ {
			if t[k] < 0 || t[k] >= n {
				return fmt.Errorf("mesh: triangle %d vertex %d index %d out of range [0,%d)", ti, k, t[k], n)
			}
			used[t[k]] = true
		}
		if t[0] == t[1] || t[1] == t[2] || t[0] == t[2] {
			return fmt.Errorf("mesh: triangle %d has repeated vertex: %v", ti, t)
		}
		key := canonicalTri(t)
		if _, dup := seen[key]; dup {
			return fmt.Errorf("mesh: duplicate triangle %v", t)
		}
		seen[key] = struct{}{}
	}
	for v, ok := range used {
		if !ok {
			return fmt.Errorf("mesh: isolated vertex %d", v)
		}
	}
	return nil
}

// sameVerdict reports whether Validate and the reference agree on m, down
// to the error string.
func sameVerdict(t *testing.T, name string, m *Mesh) {
	t.Helper()
	got, want := m.Validate(), validateReference(m)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: Validate = %v, reference = %v", name, got, want)
	}
}

// TestValidateMatchesReference corrupts valid meshes in seeded ways, alone
// and in pairs, and checks Validate reports the violation the map-based
// reference reports.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Each corruption returns a mesh derived from m, sharing nothing with it.
	corrupt := []struct {
		name string
		f    func(m *Mesh) *Mesh
	}{
		{"out of range", func(m *Mesh) *Mesh {
			m.Tris[rng.Intn(len(m.Tris))][rng.Intn(3)] = int32(len(m.Verts) + rng.Intn(3))
			return m
		}},
		{"negative", func(m *Mesh) *Mesh {
			m.Tris[rng.Intn(len(m.Tris))][rng.Intn(3)] = -1 - int32(rng.Intn(3))
			return m
		}},
		{"repeated vertex", func(m *Mesh) *Mesh {
			t := &m.Tris[rng.Intn(len(m.Tris))]
			k := rng.Intn(3)
			t[k] = t[(k+1)%3]
			return m
		}},
		{"rotated duplicate", func(m *Mesh) *Mesh {
			s := m.Tris[rng.Intn(len(m.Tris))]
			m.Tris[rng.Intn(len(m.Tris))] = Triangle{s[1], s[2], s[0]}
			return m
		}},
		{"flipped duplicate", func(m *Mesh) *Mesh {
			s := m.Tris[rng.Intn(len(m.Tris))]
			m.Tris = append(m.Tris, Triangle{s[2], s[1], s[0]})
			return m
		}},
		{"isolated vertex", func(m *Mesh) *Mesh {
			m.Verts = append(m.Verts, Vertex{X: 9, Y: 9})
			return m
		}},
		{"non-finite coordinate", func(m *Mesh) *Mesh {
			v := &m.Verts[rng.Intn(len(m.Verts))]
			bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			if rng.Intn(2) == 0 {
				v.X = bad
			} else {
				v.Y = bad
			}
			return m
		}},
	}
	clone := func(m *Mesh) *Mesh {
		return &Mesh{Verts: append([]Vertex(nil), m.Verts...), Tris: append([]Triangle(nil), m.Tris...)}
	}
	for _, base := range []*Mesh{Rect(4, 3, 1, 1), Disk(3, 12, 1), Annulus(3, 16, 0.4, 1)} {
		sameVerdict(t, "valid", base)
		for _, c := range corrupt {
			for i := 0; i < 20; i++ {
				sameVerdict(t, c.name, c.f(clone(base)))
				for _, d := range corrupt {
					sameVerdict(t, c.name+" then "+d.name, d.f(c.f(clone(base))))
				}
			}
		}
	}
	// A duplicate before the first bad triangle wins; one after it does not.
	m := Rect(2, 2, 1, 1)
	dupFirst := clone(m)
	dupFirst.Tris = append(dupFirst.Tris, m.Tris[0], Triangle{0, 0, 1})
	sameVerdict(t, "duplicate before bad", dupFirst)
	badFirst := clone(m)
	badFirst.Tris = append(badFirst.Tris, Triangle{0, 1, 99}, m.Tris[0])
	sameVerdict(t, "duplicate after bad", badFirst)
	sameVerdict(t, "empty", &Mesh{})
}

// FuzzValidateVsReference builds small meshes from fuzz bytes, indices
// allowed out of range and negative, and checks Validate against the
// map-based reference.
func FuzzValidateVsReference(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 1, 2, 3})
	f.Add([]byte{3, 0, 1, 2, 2, 0, 1})
	f.Add([]byte{3, 0, 1, 3})
	f.Add([]byte{3, 0, 0, 1, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{5, 0, 1, 2, 255, 3, 4})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		m := &Mesh{Verts: make([]Vertex, b[0]%16)}
		for b = b[1:]; len(b) >= 3; b = b[3:] {
			m.Tris = append(m.Tris, Triangle{int32(int8(b[0])), int32(int8(b[1])), int32(int8(b[2]))})
		}
		sameVerdict(t, fmt.Sprint(m.Tris), m)
	})
}

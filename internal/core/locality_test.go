package core

import (
	"context"
	"testing"

	"repro/internal/decimate"
	"repro/internal/mesh"
)

// chainLevels returns m and the three coarser levels a 4-level write makes
// of it, decimated on the writer's path (ratio 2 per level, parts included).
func chainLevels(t *testing.T, m *mesh.Mesh) []*mesh.Mesh {
	t.Helper()
	levels := []*mesh.Mesh{m}
	data := make([]float64, m.NumVerts())
	for l := 1; l < 4; l++ {
		res, err := decimate.DecimateParallel(context.Background(), nil, m, data[:m.NumVerts()],
			decimate.TargetForRatio(m.NumVerts(), 2), decimate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m = res.Coarse
		levels = append(levels, m)
	}
	return levels
}

// tileRuns counts the id runs of m's tiles in an n x n frame: what the
// chunk headers of a level's delta tiles store and every read parses.
func tileRuns(m *mesh.Mesh, n int) int {
	runs := 0
	for _, ids := range partitionVerts(m, newTileBox(m, n)) {
		for i, id := range ids {
			if i == 0 || id != ids[i-1]+1 {
				runs++
			}
		}
	}
	return runs
}

// TestCoarseLevelsKeepLocality: a decimated level is numbered in its input's
// order, so its tiles split into no more id runs than level 0's, and a
// regular grid's coarse geometry encodes as compactly as the serial collapse
// order's did. In the order the parts used to leave (input survivors, then
// each part's id range, then the seam pass's) the default XGC1 plane's
// levels 1-3 held 7,154 / 4,412 / 2,449 runs against level 0's 814 (810 /
// 767 / 681 in input order), and Rect(192, 192)'s level 1 took 51,389 CMSH
// bytes (13,679 in input order) against the serial order's 24,504.
func TestCoarseLevelsKeepLocality(t *testing.T) {
	levels := chainLevels(t, mesh.Annulus(32, 640, 0.6, 1)) // sim.XGC1's default plane
	base := tileRuns(levels[0], 8)
	for l, m := range levels[1:] {
		if runs := tileRuns(m, 8); runs > base {
			t.Errorf("XGC1 level %d: %d tile runs in 8x8 tiles, level 0 has %d", l+1, runs, base)
		}
	}

	grid := chainLevels(t, mesh.Rect(192, 192, 1, 1))
	if n := len(mesh.Encode(grid[1])); n > 24504 {
		t.Errorf("Rect(192, 192) level 1: %d CMSH bytes, want <= 24504", n)
	}
}

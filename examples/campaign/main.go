// Campaign demonstrates the data management the paper defers to future
// work (§IV-B): a multi-timestep simulation campaign whose base datasets
// cannot all fit in the fast tier, so the middleware must migrate and evict
// — "we believe data migration and eviction will play an integral part,
// which needs to be developed in Canopus". This repository develops it
// (storage.Hierarchy.Promote / Demote; a promotion first evicts LRU victims
// to slower tiers), and this example drives it with a realistic access
// pattern: a scientist repeatedly explores a handful of recent timesteps
// while old ones go cold.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/adios"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
)

func main() {
	// A fast tier deliberately too small for the whole campaign.
	h := storage.NewHierarchy(
		&storage.Tier{Name: "tmpfs", Capacity: 96 << 10, ReadBandwidth: 6e9, WriteBandwidth: 6e9, LatencySeconds: 2e-6},
		&storage.Tier{Name: "lustre", ReadBandwidth: 1e7, WriteBandwidth: 1e7, LatencySeconds: 1e-3},
	)
	aio := adios.NewIO(h, nil)

	// Write an 8-timestep campaign. Capacity pressure makes later bases
	// bypass tmpfs on their own (the paper's §III-D rule).
	const steps = 8
	for s := 0; s < steps; s++ {
		res := sim.XGC1(sim.XGC1Config{Rings: 16, Segments: 256, Seed: int64(100 + s)})
		res.Dataset.Name = fmt.Sprintf("dpot-t%02d", s)
		if _, err := core.Write(context.Background(), aio, res.Dataset, core.Options{Levels: 3, RelTolerance: 1e-4}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("after the campaign writes:")
	printTiers(h, steps)

	// Analysis session: the last three timesteps are hot. Promote their
	// base products into tmpfs; the migrator evicts the coldest bases to
	// make room (old timesteps written first and never read since).
	fmt.Println("\nanalysis touches t05..t07 repeatedly; promoting their bases:")
	var migrated int
	var cost storage.Cost
	for s := steps - 3; s < steps; s++ {
		key := fmt.Sprintf("dpot-t%02d/L2", s)
		if h.Where(key) == 0 {
			continue // already fast
		}
		migs, err := h.Promote(key, 0)
		if err != nil {
			log.Fatalf("promote %s: %v", key, err)
		}
		for _, m := range migs {
			fmt.Printf("  %-16s %s -> %s (%.2f ms)\n", m.Key, m.FromTier, m.ToTier, m.Cost.Seconds*1e3)
			migrated++
			cost.Add(m.Cost)
		}
	}
	fmt.Printf("%d migrations, %.2f ms total simulated cost\n", migrated, cost.Seconds*1e3)
	fmt.Println("\nafter migration:")
	printTiers(h, steps)

	// The hot timesteps now open their bases at memory speed.
	for s := steps - 3; s < steps; s++ {
		name := fmt.Sprintf("dpot-t%02d", s)
		rd, err := core.OpenReader(context.Background(), aio, name)
		if err != nil {
			log.Fatal(err)
		}
		v, err := rd.Base(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("base of %s: %.3f ms I/O\n", name, v.Timings.IOSeconds*1e3)
	}
}

func printTiers(h *storage.Hierarchy, steps int) {
	for s := 0; s < steps; s++ {
		key := fmt.Sprintf("dpot-t%02d/L2", s)
		tier := h.Where(key)
		name := "?"
		if tier >= 0 {
			name = h.Tier(tier).Name
		}
		fmt.Printf("  %-16s base on %s\n", key, name)
	}
}

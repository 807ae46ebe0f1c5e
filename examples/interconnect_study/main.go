// Interconnect study: the Section 4.2 / Figure 14 design-space
// exploration. Compares the H-tree and Bus interconnects on the paper's
// four cases, demonstrates the parallel-versus-serialized transfer
// behaviour on a micro-benchmark, and sweeps the H-tree fanout (the paper:
// "the number of children of a tree node does not have to be 4").
package main

import (
	"fmt"

	"wavepim/internal/experiments"
	"wavepim/internal/pim/intercon"
	"wavepim/internal/report"
)

func main() {
	// Micro-benchmark: the Figure 3 example — Block 0 -> 2 and Block 5 -> 7
	// run concurrently on the H-tree but serialize on the bus.
	batch := []intercon.Transfer{
		{Src: 0, Dst: 2, Words: 32},
		{Src: 5, Dst: 7, Words: 32},
	}
	h := intercon.ScheduleBatch(intercon.NewHTree(16, 4), batch)
	b := intercon.ScheduleBatch(intercon.NewBus(16), batch)
	fmt.Println("Figure 3 micro-benchmark (two disjoint transfers in a 16-block tile):")
	fmt.Printf("  H-tree: %s (transfers overlap in disjoint S0 subtrees)\n", report.Seconds(h.Makespan))
	fmt.Printf("  Bus:    %s (the single switch serializes them)\n", report.Seconds(b.Makespan))

	// Leakage trade-off (Section 4.2.2).
	ht := intercon.NewHTree(256, 4)
	bus := intercon.NewBus(256)
	fmt.Printf("\nleakage, 256-block tile: H-tree %d switches %.1f mW vs Bus 1 switch %.1f mW\n",
		ht.SwitchCount(), ht.LeakagePowerW()*1e3, bus.LeakagePowerW()*1e3)

	// Fanout sweep: switch count and worst-case route depth.
	fmt.Println("\nH-tree fanout sweep (256-block tile):")
	fmt.Printf("  %-7s %-9s %-12s\n", "fanout", "switches", "max hops")
	for _, fo := range []int{2, 4, 8, 16} {
		t := intercon.NewHTree(256, fo)
		fmt.Printf("  %-7d %-9d %-12d\n", fo, t.SwitchCount(), len(t.AppendPath(nil, 0, 255)))
	}

	// The full Figure 14 study.
	fmt.Println()
	fmt.Println(experiments.Fig14Table())
	fmt.Printf("H-tree total-time savings over Bus: %.2fx (paper: ~2.16x)\n",
		experiments.HTreeTimeSavings())
}

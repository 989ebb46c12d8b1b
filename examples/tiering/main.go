// tiering: is a memory-semantic SSD worth it? The §VI-B cost argument.
//
// This example compares an all-DRAM machine against CXL-SSD designs on a
// transactional workload (tpcc), sweeps the SSD DRAM size (Fig. 21's
// question: how much controller DRAM do you actually need?), and computes
// the paper's cost-effectiveness metric with its quoted 2024 prices.
package main

import (
	"fmt"
	"log"

	"skybyte"
)

const (
	dramPerGB = 4.28 // paper: DDR5 street price, summer 2024
	ssdPerGB  = 0.27 // paper: ULL SSD street price, summer 2024
)

func main() {
	w, err := skybyte.WorkloadByName("tpcc")
	if err != nil {
		log.Fatal(err)
	}
	const totalInstr = 192_000

	dram := skybyte.Run(skybyte.ScaledConfig().WithVariant(skybyte.DRAMOnly), w, 8, totalInstr/8, 5)
	full := skybyte.Run(skybyte.ScaledConfig().WithVariant(skybyte.SkyByteFull), w, 24, totalInstr/24, 5)

	perf := float64(dram.ExecTime) / float64(full.ExecTime)
	costRatio := dramPerGB / ssdPerGB
	fmt.Printf("tpcc: SkyByte-Full reaches %.0f%% of all-DRAM performance\n", 100*perf)
	fmt.Printf("capacity cost ratio DRAM:SSD = %.1fx  =>  perf/$ advantage %.1fx\n", costRatio, perf*costRatio)
	fmt.Printf("(paper: 75%% of ideal, 15.9x cheaper, 11.8x better cost-effectiveness)\n\n")

	fmt.Println("SSD DRAM sizing (exec time, SkyByte-Full vs Base-CSSD):")
	fmt.Printf("  %-10s %-14s %-14s\n", "SSD DRAM", "Base-CSSD", "SkyByte-Full")
	for _, mb := range []int{2, 4, 8, 16} {
		cfg := skybyte.ScaledConfig().WithSSDDRAM(mb << 20)
		b := skybyte.Run(cfg.WithVariant(skybyte.BaseCSSD), w, 8, totalInstr/8, 5)
		f := skybyte.Run(cfg.WithVariant(skybyte.SkyByteFull), w, 24, totalInstr/24, 5)
		fmt.Printf("  %-10s %-14v %-14v\n", fmt.Sprintf("%dMB", mb), b.ExecTime, f.ExecTime)
	}
	fmt.Println("\nSkyByte's cacheline-granular log makes a small SSD DRAM behave like a")
	fmt.Println("much larger page cache (§VI-F), cutting device cost further.")
}

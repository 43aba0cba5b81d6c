// Quickstart: simulate one benchmark under the no-security baseline, the
// PSSM secure-memory baseline, and Plutus, and print the comparison the
// paper's abstract promises — Plutus recovers most of the security
// slowdown and roughly halves security-metadata traffic.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
)

func main() {
	runner := harness.NewRunner(harness.Config{
		MaxInstructions: 15000,
		Benchmarks:      []string{"bfs"},
	})

	schemes := []secmem.Config{
		secmem.Baseline(harness.ProtectedBytes),
		secmem.PSSM(harness.ProtectedBytes),
		secmem.Plutus(harness.ProtectedBytes),
	}

	fmt.Println("simulating bfs under three memory-security schemes...")
	var base *stats.Stats
	var rows [][]string
	for _, sc := range schemes {
		st, err := runner.Run("bfs", sc)
		if err != nil {
			log.Fatal(err)
		}
		if base == nil {
			base = st
		}
		rows = append(rows, []string{
			sc.Scheme,
			fmt.Sprintf("%.4f", st.IPC()),
			fmt.Sprintf("%.3f", st.IPC()/base.IPC()),
			fmt.Sprintf("%d", st.Traffic.MetadataBytes()/1024),
			fmt.Sprintf("%d", st.Sec.ValueVerified),
		})
	}
	fmt.Println(stats.Table(
		[]string{"scheme", "IPC", "norm. IPC", "metadata KiB", "value-verified reads"}, rows))

	fmt.Println("Plutus authenticates most reads from the value cache alone —")
	fmt.Println("no MAC fetch — and serves counters from the compact mirrored layer.")
}

package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// This file owns the canonical single-run renderings. Every surface
// that shows one finished run — `plutussim` locally, plutusd over HTTP
// (`GET /v1/runs/{id}/result`), `plutussim -remote` relaying the wire
// bytes — calls these same functions, which is what makes a result
// fetched from the daemon byte-identical to the CLI's output for the
// same (benchmark, scheme, budget).

// Report renders the human-readable single-run report: IPC, DRAM
// traffic by class, metadata-cache hit rates and security-engine event
// counts. It is the exact text `plutussim` prints.
func Report(st *stats.Stats, sc secmem.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark: %s   scheme: %s\n", st.Benchmark, st.Scheme)
	fmt.Fprintf(&b, "instructions: %d (loads %d, stores %d)\n", st.Instructions, st.LoadInsts, st.StoreInsts)
	fmt.Fprintf(&b, "cycles: %d   IPC: %.4f\n\n", st.Cycles, st.IPC())

	var rows [][]string
	for _, c := range stats.Classes() {
		if st.Traffic.Bytes(c) == 0 {
			continue
		}
		rows = append(rows, []string{
			c.String(),
			fmt.Sprintf("%d", st.Traffic.Reads[c]),
			fmt.Sprintf("%d", st.Traffic.Writes[c]),
			fmt.Sprintf("%.1f", float64(st.Traffic.Bytes(c))/1024),
		})
	}
	b.WriteString(stats.Table([]string{"class", "rd txns", "wr txns", "KiB"}, rows))
	b.WriteByte('\n') // printReport used Println: blank line after the table
	fmt.Fprintf(&b, "metadata overhead: %.1f%% of data bytes\n\n",
		100*float64(st.Traffic.MetadataBytes())/float64(st.Traffic.Bytes(stats.Data)))

	fmt.Fprintf(&b, "L2 hit rate: %.1f%%\n", 100*st.L2.HitRate())
	if sc.Versions != secmem.VersionsNone {
		fmt.Fprintf(&b, "counter / MAC / BMT cache hit rates: %.1f%% / %.1f%% / %.1f%%\n",
			100*st.CounterCache.HitRate(), 100*st.MACCache.HitRate(), 100*st.BMTCache.HitRate())
		fmt.Fprintf(&b, "value-verified reads: %d   MAC-verified reads: %d   MAC updates skipped: %d\n",
			st.Sec.ValueVerified, st.Sec.MACVerified, st.Sec.MACSkippedWrites)
		fmt.Fprintf(&b, "compact: hits %d, overflow double-accesses %d, disabled accesses %d\n",
			st.Sec.CompactHits, st.Sec.CompactOverflow, st.Sec.CompactDisabled)
		fmt.Fprintf(&b, "integrity: tree-node verifications %d, tamper %d, replay %d\n",
			st.Sec.BMTNodeVerifies, st.Sec.TamperDetected, st.Sec.ReplayDetected)
		// Frontier-scheme datapath line: only mgx derives versions and
		// only ssm reconstructs shares, so every pre-frontier report
		// stays byte-identical.
		if st.Sec.DerivedVersions > 0 || st.Sec.DerivedFallbacks > 0 || st.Sec.SharesReconstructed > 0 {
			fmt.Fprintf(&b, "frontier: derived versions %d, counter fallbacks %d, share reconstructions %d\n",
				st.Sec.DerivedVersions, st.Sec.DerivedFallbacks, st.Sec.SharesReconstructed)
		}
	}
	// Attack-run lines appear only when an injector ran, so every benign
	// report stays byte-identical to pre-tamper-subsystem output.
	if st.Sec.TamperInjected > 0 || st.Sec.Verdicts.Total() > 0 {
		fmt.Fprintf(&b, "tamper: injected %d, tainted reads %d\n", st.Sec.TamperInjected, st.Sec.TaintedReads)
		b.WriteString("verdicts:")
		for _, v := range stats.VerdictKinds() {
			fmt.Fprintf(&b, " %s %d", v, st.Sec.Verdicts.Count(v))
		}
		b.WriteByte('\n')
	}
	em := stats.DefaultEnergyModel()
	fmt.Fprintf(&b, "average power (arbitrary units): %.1f\n", em.Power(st))
	return b.String()
}

// WriteRunJSON writes the canonical machine-readable encoding of one
// run: the full stats.Stats record, indented, newline-terminated. It is
// what `plutussim -json` prints and what plutusd serves for
// `GET /v1/runs/{id}/result?format=json`, so the two are comparable
// with a plain byte diff.
func WriteRunJSON(w io.Writer, st *stats.Stats) error {
	blob, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}

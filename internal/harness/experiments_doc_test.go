package harness

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// reportTable is the first table of one results/<id>.txt report: cells
// by row label (the first column) and column header.
type reportTable struct {
	text string
	rows []string
	cell map[string]map[string]string
}

// readReport parses results/<id>.txt. The dashed rule under the header
// fixes each column's start, since headers and cells may hold spaces;
// the table ends at the first line whose columns do not line up with
// it. A percentage cell reads "51.0 %", as the document writes it.
func readReport(t *testing.T, id string) reportTable {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(resultsDir, id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	rule := 0
	for rule < len(lines) && !strings.HasPrefix(lines[rule], "---") {
		rule++
	}
	if rule == 0 || rule == len(lines) {
		t.Fatalf("results/%s.txt has no table", id)
	}
	var starts []int
	for i, c := range lines[rule] {
		if c == '-' && (i == 0 || lines[rule][i-1] == ' ') {
			starts = append(starts, i)
		}
	}
	split := func(line string) []string {
		var out []string
		for k, s := range starts {
			end := len(line)
			if k+1 < len(starts) && starts[k+1] < end {
				end = starts[k+1]
			}
			if s > end {
				s = end
			}
			out = append(out, strings.TrimSpace(line[s:end]))
		}
		return out
	}
	aligned := func(line string) bool {
		for _, s := range starts[1:] {
			if s >= len(line) || line[s-1] != ' ' {
				return false
			}
		}
		return strings.TrimSpace(line) != ""
	}
	tab := reportTable{text: string(raw), cell: map[string]map[string]string{}}
	header := split(lines[rule-1])
	for _, line := range lines[rule+1:] {
		if !aligned(line) {
			break
		}
		cells := split(line)
		tab.rows = append(tab.rows, cells[0])
		tab.cell[cells[0]] = map[string]string{}
		for k, h := range header {
			if v, ok := strings.CutSuffix(cells[k], "%"); ok {
				cells[k] = v + " %"
			}
			tab.cell[cells[0]][h] = cells[k]
		}
	}
	return tab
}

// get returns one cell, failing the test when it is missing.
func (r reportTable) get(t *testing.T, row, col string) string {
	t.Helper()
	v, ok := r.cell[row][col]
	if !ok {
		t.Fatalf("no cell (%s, %s) in %q", row, col, r.text)
	}
	return v
}

// num returns one cell as a number, ignoring a trailing " %".
func (r reportTable) num(t *testing.T, row, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(r.get(t, row, col), " %"), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// match returns the first submatch of re in the report's text.
func (r reportTable) match(t *testing.T, re string) []string {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(r.text)
	if m == nil {
		t.Fatalf("%q does not match %q", re, r.text)
	}
	return m
}

// benchmarks are the report's benchmark rows: every row but the
// geomean.
func (r reportTable) benchmarks() []string {
	var out []string
	for _, row := range r.rows {
		if row != "geomean" {
			out = append(out, row)
		}
	}
	return out
}

// span renders the least and greatest of col over rows as "lo–hi",
// each as the report prints it.
func (r reportTable) span(t *testing.T, col string, rows ...string) string {
	t.Helper()
	lo, hi := rows[0], rows[0]
	for _, row := range rows {
		if r.num(t, row, col) < r.num(t, lo, col) {
			lo = row
		}
		if r.num(t, row, col) > r.num(t, hi, col) {
			hi = row
		}
	}
	return r.get(t, lo, col) + "–" + r.get(t, hi, col)
}

// signedPct renders a relative change as the document writes it.
func signedPct(frac float64) string {
	s := fmt.Sprintf("%.1f %%", math.Abs(frac)*100)
	if frac < 0 {
		return "−" + s
	}
	return "+" + s
}

// TestExperimentsQuotesResults pins the numbers EXPERIMENTS.md quotes
// from results/. Each claim is a phrase of the document with its numbers
// read, or derived, from the committed report, so regenerating a figure
// that moves a number fails here until the prose follows it.
func TestExperimentsQuotesResults(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(string(raw)), " ")
	fig := map[string]reportTable{}
	for _, id := range []string{"eq1", "fig6", "fig7", "fig9", "fig10", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"frontier", "ablation-valcache", "ablation-metacache"} {
		fig[id] = readReport(t, id)
	}
	cells := func(id, col string, rows ...string) string {
		var out []string
		for _, row := range rows {
			out = append(out, row+" "+fig[id].get(t, row, col))
		}
		return strings.Join(out, ", ")
	}
	gain := func(id, row, base, col string) float64 {
		return fig[id].num(t, row, col)/fig[id].num(t, row, base) - 1
	}
	// best is the benchmark with the largest gain of col over base.
	best := func(id, base, col string) string {
		top := ""
		for _, b := range fig[id].benchmarks() {
			if top == "" || gain(id, b, base, col) > gain(id, top, base, col) {
				top = b
			}
		}
		return top
	}

	f6, f7, f9, f10 := fig["fig6"], fig["fig7"], fig["fig9"], fig["fig10"]
	f15, f16, f17, f18 := fig["fig15"], fig["fig16"], fig["fig17"], fig["fig18"]
	f19, f20, f21, f22, eq1 := fig["fig19"], fig["fig20"], fig["fig21"], fig["fig22"], fig["eq1"]
	front, vc, mc := fig["frontier"], fig["ablation-valcache"], fig["ablation-metacache"]

	vBest := best("fig15", "pssm", "plutus-V")
	headline := f18.match(t, `Plutus over PSSM: \+([0-9.]+)% IPC \(max \+([0-9.]+)% on (\w+)\)`)
	meanCut := f19.match(t, `Mean reduction: ([0-9.]+)%`)[1] + " %"
	maxCut := ""
	for _, b := range f19.benchmarks() {
		if maxCut == "" || f19.num(t, b, "reduction") > f19.num(t, maxCut, "reduction") {
			maxCut = b
		}
	}
	graph := []string{"bfs", "sssp", "pagerank"}
	regular := []string{"backprop", "hotspot", "kmeans", "nw", "pathfinder", "sgemm", "srad", "stencil", "stream"}
	vcFrac := func(n int) string {
		return f21.match(t, fmt.Sprintf(`(?m)^ +%d entries: ([0-9.]+)%% of reads`, n))[1] + " %"
	}
	// forgery is ablation-valcache's Eq. 1 bound at threshold x under
	// the mask of column i (0, 4 and 8 bits).
	forgery := func(x, i int) string {
		return vc.match(t, fmt.Sprintf(`(?m)^%d of 4 +(\S+) +(\S+) +(\S+)`, x))[1+i]
	}
	for _, b := range vc.rows {
		if vc.get(t, b, "mask=8") != vc.get(t, b, "default") {
			t.Errorf("EXPERIMENTS.md says mask = 8 reads the same as mask = 4 on every benchmark; %s differs", b)
		}
	}
	pinSwing := func(b string) float64 { return vc.num(t, b, "pinned=50%") - vc.num(t, b, "pinned=0%") }
	mostPinned := vc.rows[0]
	for _, b := range vc.rows {
		if b != "mean" && pinSwing(b) > pinSwing(mostPinned) {
			mostPinned = b
		}
	}
	mcGain := func(col, base string) string { return signedPct(gain("ablation-metacache", "geomean", base, col)) }
	if mc.num(t, "geomean", "pssm-mc8") <= f18.num(t, "geomean", "plutus") {
		t.Error("EXPERIMENTS.md says PSSM with 8 KiB caches is above Plutus; results/ disagree")
	}
	if front.get(t, "pssm-4Bmac", "ipc") != front.get(t, "pssm", "ipc") {
		t.Error("EXPERIMENTS.md says pssm-4Bmac and pssm share a geomean IPC; results/frontier.txt disagrees")
	}

	claims := []string{
		fmt.Sprintf("%d synthetic benchmarks", len(f6.benchmarks())),
		// Headline table.
		fmt.Sprintf("| +%s %% geomean, up to +%s %% (%s) |", headline[1], headline[2], headline[3]),
		fmt.Sprintf("| −%s mean, up to −%s (%s) |", meanCut, f19.get(t, maxCut, "reduction"), maxCut),
		fmt.Sprintf("| %s geomean, %s max (%s) |", signedPct(gain("fig15", "geomean", "pssm", "plutus-V")),
			signedPct(gain("fig15", vBest, "pssm", "plutus-V")), vBest),
		fmt.Sprintf("| %s geomean (3-bit, adaptive), %s (2-bit)",
			signedPct(gain("fig17", "geomean", "pssm", "plutus-C-3bit")), signedPct(gain("fig17", "geomean", "pssm", "plutus-C-2bit"))),
		fmt.Sprintf("| hybrid (%s) ≥ all-128 B > all-32 B (%s)",
			signedPct(gain("fig16", "geomean", "pssm", "plutus-G-ctr32-bmt128")), signedPct(gain("fig16", "geomean", "pssm", "plutus-G-all-32B"))),
		// Fig. 6.
		fmt.Sprintf("normalized IPC geomean **%s**", f6.get(t, "geomean", "pssm")),
		"(" + cells("fig6", "pssm", "sgemm", "stencil", "hotspot") + ")",
		"(" + cells("fig6", "pssm", "bfs", "sssp", "spmv") + ")",
		// Fig. 7.
		fmt.Sprintf("move **%s× their data bytes in metadata** (counters %s×, MAC %s×, BMT %s×",
			f7.span(t, "meta/data", graph...), f7.span(t, "counter", graph...), f7.span(t, "mac", graph...), f7.span(t, "bmt", graph...)),
		fmt.Sprintf("sit at %s×", f7.span(t, "meta/data", regular...)),
		// Fig. 9.
		fmt.Sprintf("bfs %s → %s → %s", f9.get(t, "bfs", "all-8"), f9.get(t, "bfs", "3-of-4 halves"), f9.get(t, "bfs", "3-of-4 masked")),
		fmt.Sprintf("hotspot %s → %s → **%s**", f9.get(t, "hotspot", "all-8"), f9.get(t, "hotspot", "3-of-4 halves"), f9.get(t, "hotspot", "3-of-4 masked")),
		fmt.Sprintf("sgemm stays low (%s → %s → %s)", f9.get(t, "sgemm", "all-8"), f9.get(t, "sgemm", "3-of-4 halves"), f9.get(t, "sgemm", "3-of-4 masked")),
		// Fig. 10.
		fmt.Sprintf("%s loads per benchmark (%s)", f10.span(t, "read%", f10.rows...), cells("fig10", "read%", "kmeans", "histo")),
		// Fig. 15.
		fmt.Sprintf("geomean %s → %s (**%s**), up to %s (%s)", f15.get(t, "geomean", "pssm"), f15.get(t, "geomean", "plutus-V"),
			signedPct(gain("fig15", "geomean", "pssm", "plutus-V")), signedPct(gain("fig15", vBest, "pssm", "plutus-V")), vBest),
		// Fig. 16.
		fmt.Sprintf("hybrid %s ≥ all-128 B %s > all-32 B %s", f16.get(t, "geomean", "plutus-G-ctr32-bmt128"),
			f16.get(t, "geomean", "pssm"), f16.get(t, "geomean", "plutus-G-all-32B")),
		// Fig. 17.
		fmt.Sprintf("(geomean %s → %s–%s)", f17.get(t, "geomean", "pssm"), f17.get(t, "geomean", "plutus-C-3bit"), f17.get(t, "geomean", "plutus-C-2bit")),
		// Fig. 18.
		fmt.Sprintf("**+%s %% geomean, +%s %% max (%s)**", headline[1], headline[2], headline[3]),
		fmt.Sprintf("PSSM+common-counters geomean %s", f18.get(t, "geomean", "pssm+cc")),
		fmt.Sprintf("(bfs %s → %s, pagerank %s → %s, spmv %s → %s, sssp %s → %s)",
			f18.get(t, "bfs", "pssm"), f18.get(t, "bfs", "plutus"), f18.get(t, "pagerank", "pssm"), f18.get(t, "pagerank", "plutus"),
			f18.get(t, "spmv", "pssm"), f18.get(t, "spmv", "plutus"), f18.get(t, "sssp", "pssm"), f18.get(t, "sssp", "plutus")),
		fmt.Sprintf("histo (%s → %s) and backprop (%s → %s)", f18.get(t, "histo", "pssm"), f18.get(t, "histo", "plutus"),
			f18.get(t, "backprop", "pssm"), f18.get(t, "backprop", "plutus")),
		// Fig. 19.
		fmt.Sprintf("**−%s mean**, up to −%s (%s %s KB → %s KB)", meanCut, f19.get(t, maxCut, "reduction"), maxCut,
			f19.get(t, maxCut, "pssm meta (KB)"), f19.get(t, maxCut, "plutus meta (KB)")),
		// Fig. 20.
		fmt.Sprintf("geomean %s → %s", f20.get(t, "geomean", "plutus"), f20.get(t, "geomean", "plutus-notree")),
		// Fig. 21.
		fmt.Sprintf("%s of reads at 64 entries, %s at 256 and %s at 1024", vcFrac(64), vcFrac(256), vcFrac(1024)),
		fmt.Sprintf("IPC geomean %s → %s → %s", f21.get(t, "geomean", "vc-64"), f21.get(t, "geomean", "vc-256"), f21.get(t, "geomean", "vc-1024")),
		// Fig. 22.
		fmt.Sprintf("PSSM %s× → Plutus %s× geomean", f22.get(t, "geomean", "pssm"), f22.get(t, "geomean", "plutus")),
		fmt.Sprintf("(stencil %s× → %s×)", f22.get(t, "stencil", "pssm"), f22.get(t, "stencil", "plutus")),
		// Eq. 1.
		fmt.Sprintf("p = %s per value", eq1.match(t, `\(p=([0-9.e+-]+)\)`)[1]),
		fmt.Sprintf("probability **%s**", eq1.get(t, "3 of 4", "P(tampered block passes)")),
		// Ablation: value-cache parameters.
		fmt.Sprintf("value-verified fraction: **%s** at the default", vc.get(t, "mean", "default")),
		fmt.Sprintf("x = 2 raises the mean to %s and x = 4 cuts it to %s", vc.get(t, "mean", "x=2"), vc.get(t, "mean", "x=4")),
		fmt.Sprintf("(bfs %s → %s → %s at x = 2/3/4)", vc.get(t, "bfs", "x=2"), vc.get(t, "bfs", "default"), vc.get(t, "bfs", "x=4")),
		fmt.Sprintf("passes with %s at x = 2, %s at x = 3 and %s at x = 4", forgery(2, 1), forgery(3, 1), forgery(4, 1)),
		fmt.Sprintf("benchmark (mean %s), while raising the forgery bound at x = 3 to %s", vc.get(t, "mean", "mask=8"), forgery(3, 2)),
		fmt.Sprintf("the mean falls to %s (pagerank %s → %s)", vc.get(t, "mean", "mask=0"), vc.get(t, "pagerank", "default"), vc.get(t, "pagerank", "mask=0")),
		fmt.Sprintf("read a mean of %s, %s and %s; %s moves most (%s → %s → %s)",
			vc.get(t, "mean", "pinned=0%"), vc.get(t, "mean", "default"), vc.get(t, "mean", "pinned=50%"), mostPinned,
			vc.get(t, mostPinned, "pinned=0%"), vc.get(t, mostPinned, "default"), vc.get(t, mostPinned, "pinned=50%")),
		// Ablation: metadata-cache size.
		fmt.Sprintf("Normalized IPC geomean %s / %s / %s / %s (bfs %s → %s → %s → %s)",
			mc.get(t, "geomean", "pssm-mc1"), mc.get(t, "geomean", "pssm"), mc.get(t, "geomean", "pssm-mc4"), mc.get(t, "geomean", "pssm-mc8"),
			mc.get(t, "bfs", "pssm-mc1"), mc.get(t, "bfs", "pssm"), mc.get(t, "bfs", "pssm-mc4"), mc.get(t, "bfs", "pssm-mc8")),
		fmt.Sprintf("1 KiB costs %s, and 2 → 4 KiB buys %s and 4 → 8 KiB %s",
			mcGain("pssm-mc1", "pssm"), mcGain("pssm-mc4", "pssm"), mcGain("pssm-mc8", "pssm-mc4")),
		fmt.Sprintf("(geomean %s in Fig. 18)", f18.get(t, "geomean", "plutus")),
		// Ablation: MAC size.
		fmt.Sprintf("geomean IPC %s for both, with DRAM bytes %s× and %s× no security",
			front.get(t, "pssm", "ipc"), front.get(t, "pssm-4Bmac", "dram bytes"), front.get(t, "pssm", "dram bytes")),
	}
	for _, c := range claims {
		if !strings.Contains(doc, c) {
			t.Errorf("EXPERIMENTS.md does not say %q, which results/ gives", c)
		}
	}
}

package experiments

import (
	"math"
	"strings"
	"testing"

	"cxlmem/internal/results"
)

// claimData runs one experiment in the golden corpus's options and indexes
// its typed cells by column name and by the leading string cell of a row.
type claimData struct {
	t *testing.T
	d *results.Dataset
}

func runClaim(t *testing.T, id string) claimData {
	t.Helper()
	o := DefaultOptions()
	o.Quick = true
	o.Parallel = 1
	d, err := RunDataset(id, o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return claimData{t: t, d: d}
}

// col returns the index of the column named name.
func (c claimData) col(name string) int {
	c.t.Helper()
	for i, cl := range c.d.Columns {
		if cl.Name == name {
			return i
		}
	}
	c.t.Fatalf("%s has no column %q", c.d.ID, name)
	return 0
}

// row returns the first row whose leading cell starts with label.
func (c claimData) row(label string) int {
	c.t.Helper()
	for i, r := range c.d.Rows {
		if len(r) > 0 && strings.HasPrefix(r[0].Text(), label) {
			return i
		}
	}
	c.t.Fatalf("%s has no row %q", c.d.ID, label)
	return 0
}

// num is the numeric value of a cell.
func (c claimData) num(row, col int) float64 {
	c.t.Helper()
	v, ok := c.d.Rows[row][col].Value()
	if !ok {
		c.t.Fatalf("%s row %d column %d is not numeric: %q", c.d.ID, row, col, c.d.Rows[row][col].Text())
	}
	return v
}

// TestPaperClaims pins the paper's findings on the typed cells of the
// experiments whose hot loops the event engine, the Zipf sampler and the
// latency sorts drive, plus fig5's O6 and the ablation that collapses it.
// The goldens pin bytes, and regenerating them with -update rewrites
// whatever the code now prints; these claims do not move with them, so a
// change that regenerates the goldens cannot silently change the science.
func TestPaperClaims(t *testing.T) {
	t.Run("tpp-timeline ends at the 75% DDR target", func(t *testing.T) {
		c := runClaim(t, "tpp-timeline")
		last := len(c.d.Rows) - 1
		ddr, cxl := c.num(last, c.col("DDR pages")), c.num(last, c.col("CXL pages"))
		if ddr != 1536 || cxl != 512 || ddr != 0.75*(ddr+cxl) {
			t.Fatalf("last epoch holds %v DDR and %v CXL pages, want exactly 1536 and 512 (75%% of 2048 local)", ddr, cxl)
		}
	})
	t.Run("fig7 TPP p99 exceeds static (F2)", func(t *testing.T) {
		c := runClaim(t, "fig7")
		p99 := c.row("p99")
		tpp, static := c.num(p99, c.col("TPP (us)")), c.num(p99, c.col("Static 25% (us)"))
		if !(tpp > static) {
			t.Fatalf("TPP p99 %v us does not exceed the static interleave's %v us", tpp, static)
		}
	})
	t.Run("fig6b CXL p99 within 5% of DDR (F3)", func(t *testing.T) {
		c := runClaim(t, "fig6b")
		ddrCol, cxlCol := c.col("DDR 100%"), c.col("CXL 100%")
		for r := range c.d.Rows {
			ddr, cxl := c.num(r, ddrCol), c.num(r, cxlCol)
			if math.Abs(cxl-ddr) > 0.05*ddr {
				t.Fatalf("at %v QPS the CXL p99 %v ms is more than 5%% from DDR's %v ms", c.num(r, 0), cxl, ddr)
			}
		}
	})
	t.Run("fig5 CXL-A buffer latency below DDR5-L (O6)", func(t *testing.T) {
		c := runClaim(t, "fig5")
		lat := c.col("Avg latency (ns)")
		ddr, cxl := c.num(c.row("DDR5-L"), lat), c.num(c.row("CXL-A"), lat)
		if !(cxl < ddr) {
			t.Fatalf("CXL-A's 32 MB buffer latency %v ns is not below DDR5-L's %v ns", cxl, ddr)
		}
	})
	t.Run("ablation-llc keeping isolation collapses O6", func(t *testing.T) {
		fig5, abl := runClaim(t, "fig5"), runClaim(t, "ablation-llc")
		lat := fig5.col("Avg latency (ns)")
		ddr, cxl := fig5.num(fig5.row("DDR5-L"), lat), fig5.num(fig5.row("CXL-A"), lat)
		brokenCol, keptCol := abl.col("Isolation broken (hardware)"), abl.col("Isolation kept (ablation)")
		buf, dlrm := abl.row("32MB buffer latency"), abl.row("DLRM CXL100 vs DDR100")
		if broken := abl.num(buf, brokenCol); broken != cxl {
			t.Errorf("isolation-broken 32 MB latency %v ns differs from fig5's CXL-A %v ns", broken, cxl)
		}
		// Confined to the node's slices, CXL data sees DDR5-L's LLC and pays
		// more per miss, so fig5's gap vanishes.
		if kept := abl.num(buf, keptCol); kept < ddr {
			t.Errorf("isolation-kept 32 MB latency %v ns is below fig5's DDR5-L %v ns", kept, ddr)
		}
		if broken, kept := abl.num(dlrm, brokenCol), abl.num(dlrm, keptCol); !(kept < broken) {
			t.Errorf("DLRM CXL100/DDR100 is %v with isolation kept, not below %v with it broken", kept, broken)
		}
	})
}

package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Render methods produce the same rows the paper's tables report, side by
// side with the reproduction.

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// Render writes the Table 1 comparison.
func (t *Table1) Render(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "Table 1 — time for 1000 applications on 750x994x246")
	fmt.Fprintln(tw, "Arch/lang\tPaper avg [s]\tModel [s]\terr")
	rows := []struct {
		name         string
		paper, model float64
	}{
		{"Dataflow/CSL", PaperTable1.CS2, t.CS2.TotalTime},
		{"GPU/RAJA", PaperTable1.RAJA, t.RAJA.TotalTime},
		{"GPU/CUDA", PaperTable1.CUDA, t.CUDA.TotalTime},
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%+.2f%%\n", r.name, r.paper, r.model, 100*(r.model-r.paper)/r.paper)
	}
	fmt.Fprintf(tw, "\nSpeedup vs RAJA\t%.0fx (paper)\t%.1fx (model)\t\n", PaperTable1.SpeedupVsRAJA, t.SpeedupVsRAJA)
	fmt.Fprintf(tw, "Speedup vs CUDA\t\t%.1fx (model)\t\n", t.SpeedupVsCUDA)
	fmt.Fprintf(tw, "CS-2 achieved\t%.2f TFLOPS (paper)\t%.2f TFLOPS (model)\t\n", PaperHeadline.CS2Tflops, t.CS2.TFlops)
	fmt.Fprintf(tw, "CS-2 efficiency\t%.2f GFLOP/W (paper)\t%.2f GFLOP/W (model)\t\n", PaperHeadline.CS2GflopsPerWatt, t.CS2.GflopsPerWatt)
	fmt.Fprintf(tw, "Energy ratio vs RAJA\t%.1fx (paper)\t%.2fx (model)\t\n", PaperHeadline.EnergyRatio, t.EnergyRatio)
	fmt.Fprintf(tw, "\nFunctional validation (mesh %v, %d apps): dataflow max rel err %.2e, GPU max rel err %.2e\n",
		t.Meas.Dims, t.Meas.Apps, t.Meas.DataflowMaxRelErr, t.Meas.GPUMaxRelErr)
	return tw.Flush()
}

// Render writes the Table 2 weak-scaling comparison.
func (t *Table2) Render(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "Table 2 — weak scaling (1000 applications, Nz = 246)")
	fmt.Fprintln(tw, "Mesh\tCells\tGcell/s paper\tGcell/s model\tCS-2 paper [s]\tCS-2 model [s]\tA100 paper [s]\tA100 model [s]")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%dx%dx%d\t%d\t%.2f\t%.2f\t%.4f\t%.4f\t%.4f\t%.4f\n",
			r.Nx, r.Ny, r.Nz, r.Cells,
			r.PaperGcells, r.ModelGcells,
			r.PaperCS2Time, r.ModelCS2Time,
			r.PaperA100Time, r.ModelA100Time)
	}
	return tw.Flush()
}

// Render writes the Table 3 split plus the functional ablation evidence.
func (t *Table3) Render(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "Table 3 — CS-2 time distribution on 750x994x246")
	fmt.Fprintln(tw, "\tPaper [s]\tModel [s]\tPaper %\tModel %")
	fmt.Fprintf(tw, "Data movement\t%.4f\t%.4f\t%.2f\t%.2f\n",
		PaperTable3.Movement, t.Model.CommTime, PaperTable3.MovementPct, 100*t.Model.CommFraction)
	fmt.Fprintf(tw, "Computation\t%.4f\t%.4f\t%.2f\t%.2f\n",
		PaperTable3.Computation, t.Model.ComputeTime, PaperTable3.ComputationPct, 100*(1-t.Model.CommFraction))
	fmt.Fprintf(tw, "Total\t%.4f\t%.4f\t100.00\t100.00\n", PaperTable3.Total, t.Model.TotalTime)
	fmt.Fprintf(tw, "\nComm-only modified build (model): %.4f s — matches the movement row.\n", t.CommOnlyModel.TotalTime)
	fmt.Fprintf(tw, "Functional comm-only run: %d fabric words (full run: %d), %d FLOPs.\n",
		t.CommOnlyFabricWords, t.FullFabricWords, t.CommOnlyFlops)
	return tw.Flush()
}

// Render writes the Table 4 instruction counts, paper vs measured.
func (t *Table4) Render(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "Table 4 — instruction and memory access counts per interior cell")
	fmt.Fprintln(tw, "Operation\tPaper count\tMeasured count")
	for _, row := range PaperTable4 {
		got, err := t.MeasuredCount(row.Op)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\n", row.Op, row.Count, got)
	}
	fmt.Fprintf(tw, "\nLoads+stores\t%.0f\t%.0f\n", t.PaperMemAccesses, t.MeasuredMemAccesses)
	fmt.Fprintf(tw, "Fabric loads\t%.0f\t%.0f\n", t.PaperFabricLoads, t.MeasuredFabric)
	fmt.Fprintf(tw, "FLOPs/cell\t%.0f\t%.0f\n", t.PaperFlopsPerCell, t.MeasuredFlops)
	fmt.Fprintf(tw, "AI (memory)\t%.4f\t%.4f\n", PaperHeadline.AIMemory, t.AIMemory)
	fmt.Fprintf(tw, "AI (fabric)\t%.4f\t%.4f\n", PaperHeadline.AIFabric, t.AIFabric)
	return tw.Flush()
}

// Render writes both roofline panels and their classifications.
func (f *Fig8) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 8 (top) — CS-2 roofline")
	fmt.Fprint(w, f.CS2Chart)
	fmt.Fprintf(w, "Paper: bandwidth-bound (memory), compute-bound (fabric); achieved %.2f TFLOPS.\n",
		PaperHeadline.CS2Tflops)
	fmt.Fprintf(w, "Model: %s (memory, %.0f%% of roofline), %s (fabric); achieved %.2f TFLOPS.\n\n",
		f.CS2MemBound, 100*f.CS2MemFrac, f.CS2FabBound, f.AchievedFlops/1e12)
	fmt.Fprintln(w, "Figure 8 (bottom) — A100 roofline")
	fmt.Fprint(w, f.A100Chart)
	fmt.Fprintf(w, "Paper: memory-bound, AI %.2f FLOPs/B, %.0f%% of peak.\n",
		PaperHeadline.A100AI, 100*PaperHeadline.A100PeakFrac)
	fmt.Fprintf(w, "Model: %s, AI %.2f FLOPs/B, %.0f%% of roofline.\n",
		f.A100Bound, f.A100AI, 100*f.A100FracPeak)
	occ := f.Meas.Occupancy
	fmt.Fprintf(w, "Occupancy: paper %.2f warps/SM, %.2f%%; model %.2f warps/SM, %.2f%%.\n",
		PaperHeadline.A100Warps, 100*PaperHeadline.A100Occupancy,
		occ.AchievedWarpsPerSM, 100*occ.AchievedFraction)
	return nil
}

// Render writes an ablation comparison.
func (a *Ablation) Render(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintf(tw, "Ablation — %s\n", a.Name)
	fmt.Fprintf(tw, "baseline\t%s\n", a.BaselineHostDetail)
	fmt.Fprintf(tw, "variant\t%s\n", a.VariantHostDetail)
	if a.Name == "buffer reuse off (naive intermediates)" {
		fmt.Fprintf(tw, "max Nz\t%.0f (reuse) vs %.0f (naive)\tfootprint ratio %.2f\n",
			a.BaselineModelTime, a.VariantModelTime, a.Slowdown)
	} else {
		fmt.Fprintf(tw, "model time at paper scale\t%.4f s → %.4f s\t(%.2fx)\n",
			a.BaselineModelTime, a.VariantModelTime, a.Slowdown)
	}
	return tw.Flush()
}

package massivefv_test

// These Examples print values of the calibrated performance models and the
// wave leapfrog, whose products Go may contract into fused multiply-adds on
// other architectures; like fvflux's golden output they are pinned on amd64.

import (
	"fmt"
	"math"
	"strings"

	"repro/massivefv"
)

// ExampleRunDataflow runs five applications of Algorithm 1 on the
// goroutine-per-PE fabric over a small storage-site mesh, checks the
// residual against the float64 reference, and projects the measured
// per-cell counters to the paper's 750×994×246 CS-2 run.
func ExampleRunDataflow() {
	dims := massivefv.Dims{Nx: 12, Ny: 10, Nz: 8}
	m, err := massivefv.BuildMesh(dims)
	if err != nil {
		fmt.Println("mesh:", err)
		return
	}
	fl := massivefv.DefaultFluid()
	res, err := massivefv.RunDataflow(m, fl, 5)
	if err != nil {
		fmt.Println("dataflow:", err)
		return
	}
	fmt.Printf("per interior cell (Table 4): %s\n", res.Interior)

	// No-flow boundaries: the residual sums to zero up to float32 rounding.
	var sum float64
	for _, r := range res.Residual {
		sum += float64(r)
	}
	fmt.Printf("Σ residual = %.3e\n", sum)

	// The float64 reference with the linear density the kernel computes.
	lin := fl
	lin.Model = massivefv.DensityLinear
	ref, err := massivefv.RunReference(m, lin, 5)
	if err != nil {
		fmt.Println("reference:", err)
		return
	}
	worst := 0.0
	for i := range ref {
		worst = math.Max(worst, math.Abs(float64(res.Residual[i])-ref[i]))
	}
	fmt.Printf("worst deviation from the float64 reference: %.3e\n", worst)

	rep, err := massivefv.ProjectCS2(res, 750, 994, 246, 1000)
	if err != nil {
		fmt.Println("projection:", err)
		return
	}
	fmt.Printf("CS-2, 1000 applications on 750x994x246: %.4f s (paper: 0.0823 s), %.1f Gcell/s\n",
		rep.TotalTime, rep.ThroughputGcells)
	// Output:
	// per interior cell (Table 4): FMUL=60 FSUB=40 FNEG=10 FADD=10 FMA=10 FMOV=16 mem=406 fabric=16 flops=140
	// Σ residual = -5.156e-06
	// worst deviation from the float64 reference: 2.073e-04
	// CS-2, 1000 applications on 750x994x246: 0.0823 s (paper: 0.0823 s), 2227.2 Gcell/s
}

// ExampleRunGPU injects CO2 into a storage site with a 30-bar overpressure
// anomaly, applies the flux kernel on the flat dataflow engine and on the
// simulated A100's reference kernel, and projects both to a production-size
// site, the A100 as the paper's RAJA build.
func ExampleRunGPU() {
	dims := massivefv.Dims{Nx: 36, Ny: 30, Nz: 12}
	geo := massivefv.DefaultGeoOptions()
	geo.WellOverpressure = 3e6
	fl := massivefv.DefaultFluid()
	const apps = 10

	m, err := massivefv.BuildMeshWith(dims, geo)
	if err != nil {
		fmt.Println("mesh:", err)
		return
	}
	df, err := massivefv.RunFlatParallelOpts(m, fl, massivefv.DefaultOptions(apps))
	if err != nil {
		fmt.Println("dataflow:", err)
		return
	}
	// Neither run writes the mesh: the GPU run perturbs its device copy.
	gpu, stats, err := massivefv.RunGPU(m, fl, apps)
	if err != nil {
		fmt.Println("gpu:", err)
		return
	}

	// Net flux of the injector's column at (Nx/3, Ny/3): negative is outflow.
	column := func(r []float32) float64 {
		sum := 0.0
		for z := 0; z < dims.Nz; z++ {
			sum += float64(r[(z*dims.Ny+dims.Ny/3)*dims.Nx+dims.Nx/3])
		}
		return sum
	}
	fmt.Printf("well column net flux: dataflow %.4e, RAJA %.4e\n", column(df.Residual), column(gpu))
	fmt.Printf("RAJA FLOPs measured: %d\n", stats.Flops)

	cs2, err := massivefv.ProjectCS2(df, 750, 994, 246, 1000)
	if err != nil {
		fmt.Println("projection:", err)
		return
	}
	a100, err := massivefv.ProjectA100(stats, dims.Cells(), apps, 750*994*246, 1000, massivefv.RAJA)
	if err != nil {
		fmt.Println("projection:", err)
		return
	}
	fmt.Printf("750x994x246 x 1000 applications: CS-2 %.4f s, A100 %.2f s (RAJA), %.0fx\n",
		cs2.TotalTime, a100.TotalTime, a100.TotalTime/cs2.TotalTime)
	// Output:
	// well column net flux: dataflow -1.8169e+01, RAJA -1.8172e+01
	// RAJA FLOPs measured: 36288000
	// 750x994x246 x 1000 applications: CS-2 0.0823 s, A100 16.84 s (RAJA), 204x
}

// ExampleSimulateWave propagates a Ricker wavelet through a medium tilted
// 30° on the wavelet fabric — the TTI cross-derivative reads all four
// diagonal neighbors every step — checks it against the serial engine bit
// for bit, and draws the wavefront, whose long axis follows the tilt.
func ExampleSimulateWave() {
	const n = 31
	med, err := massivefv.NewWaveMedium(n, n, 10, 2400, 1500, math.Pi/6)
	if err != nil {
		fmt.Println("medium:", err)
		return
	}
	opts := massivefv.WaveOptions{
		Dt:     0.8 * med.MaxStableDt(),
		Steps:  45,
		Source: massivefv.WaveSource{X: n / 2, Y: n / 2, Freq: 25, Amp: 1},
	}
	host, err := massivefv.SimulateWave(med, opts)
	if err != nil {
		fmt.Println("host:", err)
		return
	}
	opts.Fabric = true
	fab, err := massivefv.SimulateWave(med, opts)
	if err != nil {
		fmt.Println("fabric:", err)
		return
	}
	same := true
	for i := range host.U {
		same = same && host.U[i] == fab.U[i]
	}
	fmt.Println("fabric matches the serial engine bit for bit:", same)

	var peak float64
	for _, v := range fab.U {
		peak = math.Max(peak, math.Abs(float64(v)))
	}
	shades := " .:-=+*#%@"
	for y := 0; y < n; y += 2 {
		var row strings.Builder
		for x := 0; x < n; x++ {
			i := int(math.Abs(float64(fab.U[med.Index(x, y)])) / peak * float64(len(shades)-1))
			row.WriteByte(shades[i])
		}
		fmt.Println("|" + row.String() + "|")
	}
	// Output:
	// fabric matches the serial engine bit for bit: true
	// |                               |
	// |  ....:::::::...               |
	// | .:--::..   ..::--::.          |
	// | ::..-+#######*+=: .-=-:       |
	// |  .=%%*-. ....  :=*##= -+-.    |
	// | .=#%= ::..    .... .=#*::=-.  |
	// | .=##-.:...      ..... =#+ --. |
	// |  .+#= :..          ... -#*..: |
	// | :..*#- ...          ..: =#+.  |
	// | .-- +#= .....      ...:.-##=. |
	// |  .-=::*#=. ....    ..:: =%#=. |
	// |    .-+- =##*=:  .... .-*@%=.  |
	// |       :-=-. :=+*#######+-..:: |
	// |          .::--::..   ..::--:. |
	// |               ...:::::::....  |
	// |                               |
}

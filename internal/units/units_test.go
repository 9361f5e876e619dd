package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDarcyConversionRoundTrip(t *testing.T) {
	f := func(md float64) bool {
		md = math.Abs(md)
		if math.IsInf(md, 0) || math.IsNaN(md) {
			return true
		}
		back := FromMilliDarcy(md) / MilliDarcy
		return math.Abs(back-md) <= 1e-12*md
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMilliDarcyMagnitude(t *testing.T) {
	// 1 mD ≈ 1e-15 m²; a sanity anchor for geomodel values.
	if MilliDarcy < 9e-16 || MilliDarcy > 1e-15 {
		t.Errorf("MilliDarcy = %g out of expected magnitude", MilliDarcy)
	}
}

func TestHydrostaticPressure(t *testing.T) {
	// 1500 m of water on top of 1 atm ≈ 148.1 bar + 1 atm.
	p := HydrostaticPressure(1.013e5, 1000, 1500)
	want := 1.013e5 + 1000*Gravity*1500
	if p != want {
		t.Errorf("HydrostaticPressure = %g, want %g", p, want)
	}
	if p < 1.4e7 || p > 1.6e7 {
		t.Errorf("1500 m column pressure %g Pa outside plausible range", p)
	}
}

func TestHydrostaticPressureZeroDepth(t *testing.T) {
	if got := HydrostaticPressure(5, 1000, 0); got != 5 {
		t.Errorf("zero depth should return surface pressure, got %g", got)
	}
}

func TestByteSizes(t *testing.T) {
	if KiB != 1024 || MiB != 1024*1024 || GiB != 1024*1024*1024 {
		t.Error("byte size constants wrong")
	}
}

// Package units provides the physical constants and unit-conversion helpers
// used throughout the finite-volume flux computation. All internal math is in
// SI units (Pa, m, s, kg); the geomodel builders quote permeability in
// millidarcy, the field unit common in reservoir engineering.
package units

// Fundamental constants (SI).
const (
	// Gravity is the standard gravitational acceleration in m/s².
	Gravity = 9.80665

	// Darcy is one darcy expressed in m². Permeability fields are usually
	// quoted in millidarcy; see MilliDarcy.
	Darcy = 9.869233e-13

	// MilliDarcy is 1 mD in m².
	MilliDarcy = Darcy * 1e-3
)

// Byte-size helpers for the machine models.
const (
	KiB = 1024
	MiB = 1024 * KiB
	GiB = 1024 * MiB
)

// FromMilliDarcy converts a permeability in millidarcy to m².
func FromMilliDarcy(md float64) float64 { return md * MilliDarcy }

// HydrostaticPressure returns the pressure at depth z (m, positive down)
// for a column of fluid with the given surface pressure and constant density.
func HydrostaticPressure(surfacePa, density, depth float64) float64 {
	return surfacePa + density*Gravity*depth
}

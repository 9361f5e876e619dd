package cliutil

import (
	"testing"

	"repro/internal/mesh"
)

func TestParseDims(t *testing.T) {
	cases := []struct {
		in   string
		want mesh.Dims
		ok   bool
	}{
		{"12x10x8", mesh.Dims{Nx: 12, Ny: 10, Nz: 8}, true},
		{"750X994X246", mesh.Dims{Nx: 750, Ny: 994, Nz: 246}, true},
		{"1x1x1", mesh.Dims{Nx: 1, Ny: 1, Nz: 1}, true},
		{"12x10", mesh.Dims{}, false},
		{"12x10x8x2", mesh.Dims{}, false},
		{"axbxc", mesh.Dims{}, false},
		{"0x10x8", mesh.Dims{}, false},
		{"-3x10x8", mesh.Dims{}, false},
		{"", mesh.Dims{}, false},
		{"3x4x5y", mesh.Dims{}, false},
		{"3x4x5.7", mesh.Dims{}, false},
		{"3x4x5 6", mesh.Dims{}, false},
	}
	for _, c := range cases {
		got, err := ParseDims(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseDims(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseDims(%q) accepted", c.in)
		}
	}
}

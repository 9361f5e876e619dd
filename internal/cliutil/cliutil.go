// Package cliutil holds the small helpers shared by the command-line tools.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mesh"
)

// ParseDims parses "NxXNyXNz" (case-insensitive 'x' separators), e.g.
// "750x994x246".
func ParseDims(s string) (mesh.Dims, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return mesh.Dims{}, fmt.Errorf("dims %q: want NxXNyXNz, e.g. 12x10x8", s)
	}
	var d mesh.Dims
	for i, n := range []*int{&d.Nx, &d.Ny, &d.Nz} {
		v, err := strconv.Atoi(parts[i])
		if err != nil {
			return mesh.Dims{}, fmt.Errorf("dims %q: %w", s, err)
		}
		*n = v
	}
	if err := d.Validate(); err != nil {
		return mesh.Dims{}, err
	}
	return d, nil
}

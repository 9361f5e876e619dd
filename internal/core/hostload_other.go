//go:build !amd64

package core

// tileVector is the tile loader's vector body, which only amd64 has: here
// loadTile does every tile.
func tileVector(views *[tileWidth][]float32, n int, src []float64, plane, nz int, scale float64) bool {
	return false
}

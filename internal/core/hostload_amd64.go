package core

// loadTileAVX2 is loadTile over a full tile: cols' eight columns, each at
// least nz ≥ 8 long, from nz planes of src, plane apart. When nz is not a
// multiple of 8 its last 8-plane step overlaps the one before it, and the
// overlapped planes are stored twice with the same bits.
//
//go:noescape
func loadTileAVX2(cols *[tileWidth][]float32, src *float64, plane, nz int, scale float64)

// tileVector runs the vector body over the tile whose n columns views holds
// and reports whether it did: not where the host has no vector body, the
// tile is partial or its columns are shorter than one step, and loadTile
// does the tile then. It checks src's extent and every column's length
// before the call.
func tileVector(views *[tileWidth][]float32, n int, src []float64, plane, nz int, scale float64) bool {
	if !vectorLoad || n < tileWidth || nz < tileWidth {
		return false
	}
	_ = src[(nz-1)*plane+tileWidth-1]
	for _, col := range views {
		_ = col[nz-1]
	}
	loadTileAVX2(views, &src[0], plane, nz, scale)
	return true
}

package wse

import "testing"

func TestCS2Spec(t *testing.T) {
	s := CS2()
	if s.FabricWidth != 750 || s.FabricHeight != 994 {
		t.Errorf("usable fabric %dx%d, want 750x994 (§7.1)", s.FabricWidth, s.FabricHeight)
	}
	if s.TotalPEs != 850000 {
		t.Errorf("TotalPEs = %d, want 850000", s.TotalPEs)
	}
	if s.MemWords() != 12288 {
		t.Errorf("MemWords = %d, want 12288 (48 KiB)", s.MemWords())
	}
	if s.SIMDWidth != 2 {
		t.Errorf("SIMDWidth = %d, want 2 (§5.3.3)", s.SIMDWidth)
	}
	if s.PowerWatts != 23000 {
		t.Errorf("PowerWatts = %g, want 23000 (§7.2)", s.PowerWatts)
	}
}

func TestCheckFabricFit(t *testing.T) {
	s := CS2()
	if err := s.CheckFabricFit(750, 994); err != nil {
		t.Errorf("maximum mapping rejected: %v", err)
	}
	if err := s.CheckFabricFit(751, 994); err == nil {
		t.Error("oversize X accepted")
	}
	if err := s.CheckFabricFit(750, 995); err == nil {
		t.Error("oversize Y accepted")
	}
	if err := s.CheckFabricFit(0, 5); err == nil {
		t.Error("zero dimension accepted")
	}
}

func TestMaxNzReproducesPaperScale(t *testing.T) {
	// The flux kernel's per-PE layout uses ~44 words per Z layer plus a
	// fixed overhead (see internal/core); with the 48 KiB PE memory this
	// must admit the paper's 246 layers.
	s := CS2()
	maxNz := s.MaxNz(44, 1024)
	if maxNz < 246 {
		t.Errorf("MaxNz(44,1024) = %d: cannot hold the paper's 246-layer mesh", maxNz)
	}
	if maxNz > 300 {
		t.Errorf("MaxNz(44,1024) = %d: memory model far looser than hardware", maxNz)
	}
	if s.MaxNz(0, 0) != 0 {
		t.Error("MaxNz with zero words per layer should be 0")
	}
	if s.MaxNz(10, s.MemWords()+1) != 0 {
		t.Error("MaxNz with overhead beyond capacity should be 0")
	}
}

package cpufeat

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestProbeAgreesWithProcCPUInfo cross-checks the CPUID probe against the
// flags Linux reports, where it reports them.
func TestProbeAgreesWithProcCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AVX2FMA {
			t.Fatal("AVX2FMA is set on a non-amd64 build")
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo to cross-check against")
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	// Linux clears avx and avx2 from the flags when the OS does not enable
	// the YMM state, so the three flags are what the probe must agree with.
	want := slices.Contains(flags, "avx") && slices.Contains(flags, "avx2") && slices.Contains(flags, "fma")
	if AVX2FMA != want {
		t.Fatalf("AVX2FMA = %v, /proc/cpuinfo says avx, avx2 and fma present = %v", AVX2FMA, want)
	}
}

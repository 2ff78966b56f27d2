package tensor

// The AVX2 leaves of leaf_amd64.s. Both are leafFunc to the letter — rows are
// lanes-wide ymm accumulators, every lane the sum leafGo computes for that
// output, in leafGo's order, with VMULP* and VADDP* — and check no bound.

//go:noescape
func leafAVX2F64(acc *[accLen]float64, n int, x []float64, xs int, off []int32, w []float64, ws int)

//go:noescape
func leafAVX2F32(acc *[accLen]float32, n int, x []float32, xs int, off []int32, w []float32, ws int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func init() {
	if hasAVX2() {
		vecLeaves = leaves{leafAVX2F64, leafAVX2F32}
		vectorLeaf = true
	}
}

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the ymm state:
// CPUID.1:ECX OSXSAVE and AVX, XCR0 bits 1 and 2, CPUID.7:EBX AVX2.
func hasAVX2() bool {
	const osxsave, avx, avx2, xmmYmm = 1 << 27, 1 << 28, 1 << 5, 0b110
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

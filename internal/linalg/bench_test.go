package linalg

import (
	"math/rand"
	"testing"
)

// BenchmarkEigenSym times one Jacobi diagonalization at NBF 38, the
// basis dimension of (H2O)2/6-31G* that every SCF iteration of the
// scf-w2d-feedback workload diagonalizes. EigenSym returns freshly
// allocated eigenvalues and eigenvectors, so its allocs/op are its
// outputs and working copies, not a per-sweep cost.
func BenchmarkEigenSym(b *testing.B) {
	a := randomSymmetric(rand.New(rand.NewSource(38)), 38)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eigenSink, _ = EigenSym(a)
	}
}

// eigenSink keeps BenchmarkEigenSym's result live.
var eigenSink []float64

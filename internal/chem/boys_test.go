package chem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoysAtZero(t *testing.T) {
	out := make([]float64, 6)
	Boys(5, 0, out)
	for m := 0; m <= 5; m++ {
		want := 1 / float64(2*m+1)
		if math.Abs(out[m]-want) > 1e-14 {
			t.Fatalf("F_%d(0) = %v, want %v", m, out[m], want)
		}
	}
}

// F_0(x) = sqrt(pi/x)/2 * erf(sqrt(x)) exactly.
func TestBoysF0AgainstErf(t *testing.T) {
	out := make([]float64, 1)
	for _, x := range []float64{1e-8, 0.1, 0.5, 1, 2, 5, 10, 20, 34.9, 35.1, 50, 100, 500} {
		Boys(0, x, out)
		want := 0.5 * math.Sqrt(math.Pi/x) * math.Erf(math.Sqrt(x))
		if math.Abs(out[0]-want) > 1e-12*math.Max(1, want) {
			t.Errorf("F_0(%v) = %.15g, want %.15g", x, out[0], want)
		}
	}
}

// Upward recursion identity: F_{m+1} = ((2m+1) F_m - e^{-x}) / (2x).
func TestBoysRecursionIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := rng.Float64() * 60
		if x < 1e-6 {
			x = 1e-6
		}
		out := make([]float64, 9)
		Boys(8, x, out)
		ex := math.Exp(-x)
		for m := 0; m < 8; m++ {
			want := (float64(2*m+1)*out[m] - ex) / (2 * x)
			if math.Abs(out[m+1]-want) > 1e-10*math.Max(1e-8, out[m]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// F_m is positive and decreasing in m for x > 0.
func TestBoysMonotoneInOrder(t *testing.T) {
	out := make([]float64, 11)
	for _, x := range []float64{0.01, 1, 10, 40, 200} {
		Boys(10, x, out)
		for m := 0; m <= 10; m++ {
			if out[m] <= 0 {
				t.Fatalf("F_%d(%v) = %v, want > 0", m, x, out[m])
			}
			if m > 0 && out[m] >= out[m-1] {
				t.Fatalf("F_%d(%v)=%v >= F_%d=%v", m, x, out[m], m-1, out[m-1])
			}
		}
	}
}

// Both branches must agree with the closed form near the series/asymptotic
// switch at x = 35 (F itself has slope ~-2e-3 there, so comparing the two
// branch outputs at different x directly would mostly measure that slope).
func TestBoysContinuityAtSwitch(t *testing.T) {
	out := make([]float64, 1)
	for _, x := range []float64{34.999999, 35.000001} {
		Boys(0, x, out)
		want := 0.5 * math.Sqrt(math.Pi/x) * math.Erf(math.Sqrt(x))
		if math.Abs(out[0]-want) > 1e-12*want {
			t.Fatalf("F_0(%v) = %.15g, want %.15g", x, out[0], want)
		}
	}
}

// Known literature value: F_0(1) ≈ 0.7468241328 (= sqrt(pi)/2 erf(1)).
func TestBoysKnownValue(t *testing.T) {
	out := make([]float64, 1)
	Boys(0, 1, out)
	if math.Abs(out[0]-0.7468241328124270) > 1e-12 {
		t.Fatalf("F_0(1) = %.15g", out[0])
	}
}

func TestBoysShortSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Boys(3, 1, make([]float64, 3))
}

// The tabulated path (grid + Taylor, x < 35, top order <= 8) must
// reproduce the power series for every order on a dense x grid that
// includes the grid points, their midpoints (the largest Taylor step)
// and the approach to the x = 35 switch. Every order below the top
// comes from the downward recursion, so each out[k] is checked too.
func TestBoysTabulatedMatchesSeries(t *testing.T) {
	var xs []float64
	for i := 0; i < 35*40; i++ {
		xs = append(xs, float64(i)*boysTabStep/4) // grid points, quarter- and midpoints
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		xs = append(xs, rng.Float64()*boysTabXMax)
	}
	xs = append(xs, 1e-14, 1e-10, 34.95, 34.95+1e-12, 34.999999, math.Nextafter(boysTabXMax, 0))
	out := make([]float64, boysTabMaxM+1)
	var worst float64
	for _, x := range xs {
		for m := 0; m <= boysTabMaxM; m++ {
			Boys(m, x, out)
			for k := 0; k <= m; k++ {
				want := boysSeries(k, x)
				rel := math.Abs(out[k]-want) / want
				worst = math.Max(worst, rel)
				if rel > 1e-14 {
					t.Fatalf("Boys(%d, %v)[%d] = %.17g, series %.17g (rel %.2g)", m, x, k, out[k], want, rel)
				}
			}
		}
	}
	t.Logf("worst relative error vs series: %.2g over %d points", worst, len(xs))
}

// Orders above the table's reach take the series path: the top order is
// then exactly boysSeries.
func TestBoysAboveTableUsesSeries(t *testing.T) {
	out := make([]float64, boysTabMaxM+3)
	for _, x := range []float64{0.05, 1.23, 7, 20.05, 34.9} {
		for m := boysTabMaxM + 1; m <= boysTabMaxM+2; m++ {
			Boys(m, x, out)
			if want := boysSeries(m, x); out[m] != want {
				t.Fatalf("Boys(%d, %v) top order = %.17g, want series %.17g", m, x, out[m], want)
			}
		}
	}
}

// The asymptotic branch (x >= 35) must match the power series for every
// order up to 8: F_0 alone returns without e^{-x}, but the upward
// recursion needs the e^{-x} term from m >= 1 on, where dropping it
// would cost ~2e-8 relative by m = 8 at x = 35.
func TestBoysAsymptoticMatchesSeries(t *testing.T) {
	var xs []float64
	for i := 0; i <= 45*8; i++ {
		xs = append(xs, boysTabXMax+float64(i)/8)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		xs = append(xs, boysTabXMax+45*rng.Float64())
	}
	out := make([]float64, boysTabMaxM+1)
	var worst float64
	for _, x := range xs {
		for m := 0; m <= boysTabMaxM; m++ {
			Boys(m, x, out)
			for k := 0; k <= m; k++ {
				want := boysSeries(k, x)
				rel := math.Abs(out[k]-want) / want
				worst = math.Max(worst, rel)
				if rel > 1e-13 {
					t.Fatalf("Boys(%d, %v)[%d] = %.17g, series %.17g (rel %.2g)", m, x, k, out[k], want, rel)
				}
			}
		}
	}
	t.Logf("worst relative error vs series on [35, 80]: %.2g over %d points", worst, len(xs))
}

package chem

import "math"

// Boys fills out[0..mmax] with the Boys function values
//
//	F_m(x) = ∫₀¹ t^{2m} exp(-x t²) dt,  m = 0..mmax,
//
// which are the radial kernels of all Coulomb-type Gaussian integrals.
//
// For x < 35 the top order is interpolated from a precomputed grid by a
// short Taylor series (boysTabulated; orders above boysTabMaxM fall back
// to the power series), and lower orders follow from the numerically
// stable downward recursion F_m = (2x·F_{m+1} + e^{-x}) / (2m+1). For
// large x the asymptotic form of F_0 seeds the upward recursion, which is
// stable there; F_0 alone, the only order (ss|ss) needs, skips e^{-x}.
func Boys(mmax int, x float64, out []float64) {
	if len(out) < mmax+1 {
		panic("chem: Boys output slice too short")
	}
	switch {
	case x < 1e-14:
		for m := 0; m <= mmax; m++ {
			out[m] = 1 / float64(2*m+1)
		}
	case x < boysTabXMax:
		var ex float64
		if mmax <= boysTabMaxM {
			out[mmax], ex = boysTabulated(mmax, x)
		} else {
			out[mmax], ex = boysSeries(mmax, x), math.Exp(-x)
		}
		for m := mmax - 1; m >= 0; m-- {
			out[m] = (2*x*out[m+1] + ex) * boysInvOdd(m)
		}
	default:
		out[0] = 0.5 * math.Sqrt(math.Pi/x)
		if mmax == 0 {
			return
		}
		ex := math.Exp(-x) // ~0 but keep for x just above the cutoff
		for m := 0; m < mmax; m++ {
			out[m+1] = (float64(2*m+1)*out[m] - ex) / (2 * x)
		}
	}
}

// Boys grid: F_n(x_i) for x_i = i·boysTabStep over [0, boysTabXMax] and
// n = 0..boysTabMaxM+boysTaylorTerms-1, plus e^{-x_i} in the last column.
// The grid is a fixed-size package array, so it lives in the binary's
// data segment rather than on the heap.
const (
	boysTabXMax     = 35.0
	boysTabStep     = 0.1
	boysTabPoints   = 351 // boysTabXMax/boysTabStep + 1
	boysTabMaxM     = 8   // highest order served from the grid
	boysTaylorTerms = 8   // |Δx| <= 0.05: truncation ~ 0.05^8/8! ≈ 1e-15
	boysTabOrders   = boysTabMaxM + boysTaylorTerms
)

var boysTab [boysTabPoints][boysTabOrders + 1]float64

func init() {
	for i := range boysTab {
		x := float64(i) * boysTabStep
		row := &boysTab[i]
		ex := math.Exp(-x)
		row[boysTabOrders] = ex
		row[boysTabOrders-1] = boysSeries(boysTabOrders-1, x)
		for n := boysTabOrders - 2; n >= 0; n-- {
			row[n] = (2*x*row[n+1] + ex) / float64(2*n+1)
		}
	}
}

// boysTabulated returns F_m(x) and e^{-x} for 0 <= x < boysTabXMax and
// m <= boysTabMaxM by Taylor expansion about the nearest grid point x0,
// using dF_n/dx = -F_{n+1}:
//
//	F_m(x0+Δ) = Σ_k F_{m+k}(x0) (-Δ)^k / k!,   e^{-x} = e^{-x0} Σ_k (-Δ)^k / k!
func boysTabulated(m int, x float64) (f, ex float64) {
	i := int(x*(1/boysTabStep) + 0.5)
	row := &boysTab[i]
	d := float64(i)*boysTabStep - x // -Δ
	// Horner from the highest term down: c_k = d^k/k!.
	f = row[m+boysTaylorTerms-1]
	e := 1.0
	for k := boysTaylorTerms - 1; k > 0; k-- {
		dk := d * boysInv[k]
		f = row[m+k-1] + f*dk
		e = 1 + e*dk
	}
	return f, row[boysTabOrders] * e
}

// boysInv[k] = 1/k for the Taylor terms; boysInvOdd(m) = 1/(2m+1) for
// the downward recursion. Multiplying by these replaces a division per
// step on the hot path.
var boysInv = func() (inv [boysTaylorTerms]float64) {
	for k := 1; k < len(inv); k++ {
		inv[k] = 1 / float64(k)
	}
	return inv
}()

var boysInvOddTab = func() (inv [boysTabMaxM]float64) {
	for m := range inv {
		inv[m] = 1 / float64(2*m+1)
	}
	return inv
}()

func boysInvOdd(m int) float64 {
	if m < len(boysInvOddTab) {
		return boysInvOddTab[m]
	}
	return 1 / float64(2*m+1)
}

// boysSeries evaluates F_m(x) by the series
//
//	F_m(x) = e^{-x} Σ_{i≥0} (2m-1)!! (2x)^i / (2m+2i+1)!!
//
// which converges quickly for the x range it is used on (x < 35).
func boysSeries(m int, x float64) float64 {
	term := 1 / float64(2*m+1)
	sum := term
	for i := 1; i < 200; i++ {
		term *= 2 * x / float64(2*m+2*i+1)
		sum += term
		if term < 1e-17*sum {
			break
		}
	}
	return sum * math.Exp(-x)
}

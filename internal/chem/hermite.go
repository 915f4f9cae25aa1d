package chem

import "math"

// hermiteE holds the McMurchie–Davidson Hermite expansion coefficients
// E_t^{ij} for one Cartesian dimension of one primitive pair: the overlap
// distribution x_A^i x_B^j exp(-a r_A²) exp(-b r_B²) expanded in Hermite
// Gaussians Λ_t centred at P.
//
// Indexing: e.at(i, j, t), valid for 0 <= i <= imax, 0 <= j <= jmax,
// 0 <= t <= i+j (coefficients outside that band are zero).
type hermiteE struct {
	imax, jmax int
	data       []float64 // [(imax+1) x (jmax+1) x (imax+jmax+1)]
}

func (e *hermiteE) at(i, j, t int) float64 {
	if t < 0 || t > i+j {
		return 0
	}
	return e.data[(i*(e.jmax+1)+j)*(e.imax+e.jmax+1)+t]
}

func (e *hermiteE) set(i, j, t int, v float64) {
	e.data[(i*(e.jmax+1)+j)*(e.imax+e.jmax+1)+t] = v
}

// newHermiteE builds the E table for exponents a, b and center separation
// ab = A - B along one dimension, for angular momenta up to imax, jmax.
//
// Recurrences (Helgaker, Jørgensen & Olsen, ch. 9):
//
//	E_t^{00}    = exp(-μ ab²)
//	E_t^{i+1,j} = E_{t-1}^{ij}/(2p) + X_PA E_t^{ij} + (t+1) E_{t+1}^{ij}
//	E_t^{i,j+1} = E_{t-1}^{ij}/(2p) + X_PB E_t^{ij} + (t+1) E_{t+1}^{ij}
func newHermiteE(imax, jmax int, a, b, ab float64) *hermiteE {
	e := &hermiteE{}
	e.fill(imax, jmax, a, b, ab)
	return e
}

// fill rebuilds e in place as newHermiteE(imax, jmax, a, b, ab), reusing
// its data buffer when large enough. Every entry inside the t <= i+j band
// is written before it is read, so no zeroing pass is needed.
func (e *hermiteE) fill(imax, jmax int, a, b, ab float64) {
	e.imax, e.jmax = imax, jmax
	if n := (imax + 1) * (jmax + 1) * (imax + jmax + 1); cap(e.data) < n {
		e.data = make([]float64, n)
	} else {
		e.data = e.data[:n]
	}
	p := a + b
	mu := a * b / p
	xpa := -b / p * ab // P - A
	xpb := a / p * ab  // P - B

	e.set(0, 0, 0, math.Exp(-mu*ab*ab))
	// Build up i at j = 0.
	for i := 0; i < imax; i++ {
		for t := 0; t <= i+1; t++ {
			v := e.at(i, 0, t-1)/(2*p) + xpa*e.at(i, 0, t) + float64(t+1)*e.at(i, 0, t+1)
			e.set(i+1, 0, t, v)
		}
	}
	// Build up j for every i.
	for i := 0; i <= imax; i++ {
		for j := 0; j < jmax; j++ {
			for t := 0; t <= i+j+1; t++ {
				v := e.at(i, j, t-1)/(2*p) + xpb*e.at(i, j, t) + float64(t+1)*e.at(i, j, t+1)
				e.set(i, j+1, t, v)
			}
		}
	}
}

// hermiteR holds the Hermite Coulomb integrals R^0_{tuv}(p, PC) needed to
// assemble nuclear-attraction and electron-repulsion integrals.
type hermiteR struct {
	tmax int
	data []float64 // [(tmax+1)^3], index (t*(tmax+1)+u)*(tmax+1)+v
}

func (r *hermiteR) at(t, u, v int) float64 {
	n := r.tmax + 1
	return r.data[(t*n+u)*n+v]
}

// hermiteRWork is a reusable workspace for Hermite Coulomb integral
// construction: the Boys-function buffer and the per-order R cubes are
// retained across calls so the steady-state ERI loop performs no heap
// allocation per primitive quartet. The zero value must be grown to the
// largest order before compute runs: NewERIScratch pre-sizes it for the
// basis, and ERIBlockPairInto grows it once per shell quartet.
//
// compute's result aliases the workspace and is invalidated by the next
// compute call, so a workspace must not be shared between goroutines.
type hermiteRWork struct {
	boys   []float64
	orders [][]float64
	r      hermiteR
}

// grow preallocates the workspace for orders up to tmax.
func (w *hermiteRWork) grow(tmax int) {
	n1 := tmax + 1
	if cap(w.boys) < n1 {
		w.boys = make([]float64, n1) //lint:ignore allocfree cold start: Boys workspace grows to the basis's max total angular momentum once, then is reused
	}
	for len(w.orders) < n1 {
		w.orders = append(w.orders, nil) //lint:ignore allocfree cold start: the per-order table of R-recursion cubes grows once per arena
	}
	for n := 0; n < n1; n++ {
		if cap(w.orders[n]) < n1*n1*n1 {
			w.orders[n] = make([]float64, n1*n1*n1) //lint:ignore allocfree cold start: each R-recursion cube is sized by the max angular momentum once, then reused
		}
	}
}

// newHermiteR computes R^0_{tuv} for all t+u+v <= tmax, with Gaussian
// exponent p and separation pc = P - C.
//
//	R^n_{000}    = (-2p)^n F_n(p·|PC|²)
//	R^n_{t+1,uv} = t R^{n+1}_{t-1,uv} + X_PC R^{n+1}_{tuv}   (same for u, v)
//
// The computation runs over an auxiliary order-n dimension, consuming one
// order per unit of total angular momentum.
func newHermiteR(tmax int, p float64, pc Vec3) *hermiteR {
	// A fresh workspace per call: the result owns its data. Hot paths use
	// hermiteRWork.compute directly to amortize the allocations away.
	var w hermiteRWork
	w.grow(tmax)
	r := w.compute(tmax, p, pc)
	return &hermiteR{tmax: tmax, data: r.data}
}

// compute fills the workspace with R^0_{tuv} for all t+u+v <= tmax and
// returns a view of it; the workspace must already be grown to tmax.
// Every entry read by the recurrence (and by at, for indices within
// tmax) is written before use, so stale data from a previous, larger
// computation never leaks into the result and no zeroing pass is needed.
func (w *hermiteRWork) compute(tmax int, p float64, pc Vec3) *hermiteR {
	n1 := tmax + 1
	boysVals := w.boys[:n1]
	Boys(tmax, p*pc.Norm2(), boysVals)

	// orders[n][t][u][v] at auxiliary order n; a full (tmax+1)^3 cube per
	// order, index (t*n1+u)*n1+v. tmax stays <= ~8 for d functions so the
	// cubes are small.
	su, st := n1, n1*n1
	orders := w.orders[:n1]
	f := 1.0 // (-2p)^n
	for n := 0; n <= tmax; n++ {
		orders[n] = orders[n][:n1*n1*n1]
		orders[n][0] = f * boysVals[n]
		f *= -2 * p
	}

	// Fill v, then u, then t, consuming auxiliary orders top-down: the
	// value R^n_{tuv} requires R^{n+1} entries with one lower total index.
	// An entry with t > 0 recurses on t, else one with u > 0 on u, else
	// on v.
	for total := 1; total <= tmax; total++ {
		for n := 0; n <= tmax-total; n++ {
			dst, src := orders[n], orders[n+1]
			// t = u = 0, v = total.
			val := pc.Z * src[total-1]
			if total > 1 {
				val = float64(total-1)*src[total-2] + val
			}
			dst[total] = val
			for u := 1; u <= total; u++ {
				i := u*su + total - u
				val := pc.Y * src[i-su]
				if u > 1 {
					val = float64(u-1)*src[i-2*su] + val
				}
				dst[i] = val
			}
			for t := 1; t <= total; t++ {
				for u := 0; u <= total-t; u++ {
					i := t*st + u*su + total - t - u
					val := pc.X * src[i-st]
					if t > 1 {
						val = float64(t-1)*src[i-2*st] + val
					}
					dst[i] = val
				}
			}
		}
	}
	w.r = hermiteR{tmax: tmax, data: orders[0]}
	return &w.r
}

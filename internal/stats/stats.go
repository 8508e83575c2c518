// Package stats provides the small statistical toolbox perftrack needs:
// moments and the simple regression models used to fit and extrapolate
// per-region performance trends.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by estimators that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// LinearFit is a least-squares line y = Intercept + Slope*x.
type LinearFit struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
	// N is the number of samples the fit used.
	N int
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.Intercept + f.Slope*x }

// FitLinear computes the least-squares line through (xs, ys). It returns
// ErrEmpty when fewer than two points are available; a vertical set of
// points (all xs equal) yields a flat line at the mean.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 {
		return LinearFit{}, ErrEmpty
	}
	mx := Mean(xs[:n])
	my := Mean(ys[:n])
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	fit := LinearFit{N: n}
	if sxx == 0 {
		fit.Intercept = my
		return fit, nil
	}
	fit.Slope = sxy / sxx
	fit.Intercept = my - fit.Slope*mx
	if syy > 0 {
		// R2 = 1 - SSE/SST
		var sse float64
		for i := 0; i < n; i++ {
			e := ys[i] - fit.Predict(xs[i])
			sse += e * e
		}
		fit.R2 = 1 - sse/syy
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// LogLinearFit is a power-law fit y = A * x^B obtained by regressing
// log(y) on log(x). It models trends such as "instructions per rank halve
// when the rank count doubles".
type LogLinearFit struct {
	A, B float64
	R2   float64
	N    int
}

// Predict evaluates the fitted power law at x (x must be positive).
func (f LogLinearFit) Predict(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	return f.A * math.Pow(x, f.B)
}

// FitLogLinear fits y = A*x^B over the strictly positive samples of
// (xs, ys). Non-positive samples are skipped; fewer than two usable points
// yield ErrEmpty.
func FitLogLinear(xs, ys []float64) (LogLinearFit, error) {
	var lx, ly []float64
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	for i := 0; i < n; i++ {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	lin, err := FitLinear(lx, ly)
	if err != nil {
		return LogLinearFit{}, err
	}
	return LogLinearFit{A: math.Exp(lin.Intercept), B: lin.Slope, R2: lin.R2, N: lin.N}, nil
}

package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSumMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Sum(xs) != 10 {
		t.Errorf("Sum = %v", Sum(xs))
	}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Error("variance of singleton should be 0")
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fit.Slope, 2, 1e-12) || !approx(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if !approx(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
	if got := fit.Predict(10); !approx(got, 21, 1e-12) {
		t.Errorf("Predict(10) = %v", got)
	}
}

func TestFitLinearVertical(t *testing.T) {
	fit, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.Intercept != 2 {
		t.Errorf("vertical fit = %+v, want flat line at mean", fit)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err != ErrEmpty {
		t.Errorf("single point fit err = %v", err)
	}
	if _, err := FitLinear(nil, nil); err != ErrEmpty {
		t.Errorf("empty fit err = %v", err)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	// R2 strictly below 1 when points deviate from the line.
	fit, err := FitLinear([]float64{0, 1, 2, 3}, []float64{0, 1.1, 1.9, 3})
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 <= 0.9 || fit.R2 >= 1 {
		t.Errorf("noisy R2 = %v", fit.R2)
	}
}

func TestFitLogLinear(t *testing.T) {
	// y = 3 * x^-1 (the "instructions halve as ranks double" law).
	xs := []float64{1, 2, 4, 8}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 / x
	}
	fit, err := FitLogLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fit.A, 3, 1e-9) || !approx(fit.B, -1, 1e-9) {
		t.Errorf("power fit = %+v", fit)
	}
	if got := fit.Predict(16); !approx(got, 3.0/16, 1e-9) {
		t.Errorf("Predict(16) = %v", got)
	}
	if !math.IsNaN(fit.Predict(-1)) {
		t.Error("Predict of non-positive x should be NaN")
	}
}

func TestFitLogLinearSkipsNonPositive(t *testing.T) {
	fit, err := FitLogLinear([]float64{-1, 0, 1, 2, 4}, []float64{5, 5, 3, 1.5, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if fit.N != 3 {
		t.Errorf("usable samples = %d, want 3", fit.N)
	}
	if !approx(fit.B, -1, 1e-9) {
		t.Errorf("B = %v, want -1", fit.B)
	}
}

func TestFitLogLinearEmpty(t *testing.T) {
	if _, err := FitLogLinear([]float64{-1, -2}, []float64{1, 2}); err == nil {
		t.Error("all-nonpositive fit should fail")
	}
}

func TestFitLinearPredictsMeanAtMeanX(t *testing.T) {
	// Least squares always passes through (mean x, mean y).
	f := func(raw []float64) bool {
		if len(raw) < 6 {
			return true
		}
		n := len(raw) / 2
		xs, ys := raw[:n], raw[n:2*n]
		for _, v := range raw[:2*n] {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e50 {
				return true
			}
		}
		fit, err := FitLinear(xs, ys)
		if err != nil {
			return true
		}
		my := Mean(ys)
		pred := fit.Predict(Mean(xs))
		tol := 1e-6 * math.Max(1, math.Abs(my))
		return approx(pred, my, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

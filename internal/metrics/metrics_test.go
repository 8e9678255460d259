package metrics

import (
	"math"
	"testing"
)

func TestWeightedSpeedup(t *testing.T) {
	ws, err := WeightedSpeedup([]float64{0.5, 1.0}, []float64{1.0, 2.0})
	if err != nil {
		t.Fatalf("WeightedSpeedup: %v", err)
	}
	if ws != 1.0 {
		t.Errorf("WeightedSpeedup = %v, want 1.0", ws)
	}
	if _, err := WeightedSpeedup([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := WeightedSpeedup([]float64{1}, []float64{0}); err == nil {
		t.Error("zero alone IPC accepted")
	}
	if _, err := WeightedSpeedup([]float64{1}, []float64{math.NaN()}); err == nil {
		t.Error("NaN alone IPC accepted")
	}
	if _, err := WeightedSpeedup([]float64{math.NaN()}, []float64{1}); err == nil {
		t.Error("NaN shared IPC accepted")
	}
	ws, err = WeightedSpeedup(nil, nil)
	if err != nil || ws != 0 {
		t.Errorf("empty WeightedSpeedup = (%v, %v), want (0, nil)", ws, err)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty Mean should return 0")
	}
}

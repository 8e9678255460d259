// Package metrics provides the performance metrics used by the
// paper's evaluation — weighted speedup for multi-programmed
// workloads (Eyerman & Eeckhout; Snavely & Tullsen) — and the mean
// the experiment harnesses average it with.
package metrics

import (
	"fmt"
	"math"
)

// WeightedSpeedup returns sum_i shared[i]/alone[i]: each core's IPC
// under the shared configuration normalized to its IPC when running
// alone on the baseline system.
func WeightedSpeedup(shared, alone []float64) (float64, error) {
	if len(shared) != len(alone) {
		return 0, fmt.Errorf("metrics: %d shared IPCs vs %d alone IPCs", len(shared), len(alone))
	}
	ws := 0.0
	for i := range shared {
		// NaN compares false against everything, so it would slide past
		// the <= 0 guard and poison the sum.
		if math.IsNaN(alone[i]) || alone[i] <= 0 {
			return 0, fmt.Errorf("metrics: non-positive alone IPC %v at core %d", alone[i], i)
		}
		if math.IsNaN(shared[i]) {
			return 0, fmt.Errorf("metrics: NaN shared IPC at core %d", i)
		}
		ws += shared[i] / alone[i]
	}
	return ws, nil
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Package testutil holds serving-layer test fixtures shared by the network
// server, the remote enrichment server, the chaos matrices and the load
// generator: goroutine-leak assertions, a drain-under-load battery both
// server implementations run through, and a deterministic classifier. The
// workload database fixture lives in the servedb subpackage (it depends on
// the root package, which some consumers of this one cannot import).
package testutil

import (
	"math"

	"enrichdb/internal/ml"
)

// Domain is the derived attribute's class count in the serving workload.
const Domain = 3

// stepModel is a deterministic pure-function classifier: the class is an
// FNV hash of the feature bits, so equal features always yield equal
// distributions regardless of execution order or worker count.
type stepModel struct{}

func (stepModel) Name() string                            { return "testutil-step" }
func (stepModel) Fit(_ [][]float64, _ []int, _ int) error { return nil }
func (stepModel) PredictProba(x []float64) []float64 {
	h := uint64(1469598103934665603)
	for _, v := range x {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	out := make([]float64, Domain)
	for i := range out {
		out[i] = 0.05
	}
	out[h%Domain] = 1 - 0.05*(Domain-1)
	return out
}

// StepModel returns the deterministic hash classifier.
func StepModel() ml.Classifier { return stepModel{} }

package quality

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: the progressive score is non-negative and bounded by the sum of
// absolute improvements (weights never exceed 1).
func TestProgressiveScoreBoundsQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		q := make([]float64, len(raw))
		for i, v := range raw {
			q[i] = float64(v) / 255
		}
		ps := ProgressiveScore(q, 0.05)
		if ps < 0 || math.IsNaN(ps) {
			return false
		}
		bound := 0.0
		for i := 1; i < len(q); i++ {
			bound += math.Abs(q[i] - q[i-1])
		}
		return ps <= bound+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a monotone quality series reaching its max in one early step
// scores at least as high as any series reaching the same max later (with
// the same number of epochs).
func TestProgressiveScoreEarlyBeatsLateQuick(t *testing.T) {
	f := func(nRaw uint8, target uint8) bool {
		n := int(nRaw%20) + 3
		tv := float64(target) / 255
		early := make([]float64, n)
		late := make([]float64, n)
		for i := 1; i < n; i++ {
			early[i] = tv
		}
		late[n-1] = tv
		return ProgressiveScore(early, 0.05)+1e-12 >= ProgressiveScore(late, 0.05)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Normalize yields values in [0,1] with maximum exactly 1 for any
// non-all-zero non-negative series.
func TestNormalizeBoundsQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		q := make([]float64, len(raw))
		allZero := true
		for i, v := range raw {
			q[i] = float64(v)
			if v != 0 {
				allZero = false
			}
		}
		n := Normalize(q)
		if len(raw) == 0 || allZero {
			return true
		}
		maxV := 0.0
		for _, v := range n {
			if v < 0 || v > 1+1e-12 {
				return false
			}
			if v > maxV {
				maxV = v
			}
		}
		return math.Abs(maxV-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

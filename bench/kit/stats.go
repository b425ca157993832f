package kit

import (
	"fmt"
	"math"
	"sort"
)

// MinSamplesP90 is the least sample count at which a 90th percentile may
// be reported: ten samples must lie beyond it.
const MinSamplesP90 = 100

// Quantile returns the q-quantile (0 <= q <= 1) of vs by linear
// interpolation between order statistics. vs is not modified.
func Quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is Quantile(vs, 0.5).
func Median(vs []float64) float64 { return Quantile(vs, 0.5) }

// P90 is Quantile(vs, 0.9), refused below MinSamplesP90 samples.
func P90(vs []float64) (float64, error) {
	if len(vs) < MinSamplesP90 {
		return 0, fmt.Errorf("p90 needs >= %d samples, got %d", MinSamplesP90, len(vs))
	}
	return Quantile(vs, 0.9), nil
}

// TrimmedMean is the mean of vs after dropping the lowest and highest
// trim share of the samples (rounded down). It suits values read in
// coarse ticks, whose median would jump a whole tick at a time, while
// still ignoring the odd op that caught a hiccup.
func TrimmedMean(vs []float64, trim float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	drop := int(trim * float64(len(s)))
	s = s[drop : len(s)-drop]
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Reading is one sentinel reading: the wall time of a timed pass of the
// kernel and the CPU time its thread was given during it, in
// milliseconds. The two tell apart the two things a busy host does to a
// guest: it takes the CPU away (wall exceeds CPU), or it lets the program
// run, slower (CPU exceeds the kernel's quiet time).
type Reading struct {
	WallMS float64 `json:"wall_ms"`
	CPUMS  float64 `json:"cpu_ms"`
}

// NormFactor is the multiplier that turns a raw time into a normalised
// one, from the mean wall and CPU time of the readings taken immediately
// before and after the measured interval. Time taken away — wall over CPU
// time — is
// taken out of any program's time in proportion: a thread that is not
// running makes no progress, whatever it runs. A slower CPU — CPU time
// over nominalMS — is taken out with the exponent,
// which says how strongly the measured program's time follows the
// sentinel's when both run slower: 1 for a program the host slows
// exactly as it slows the sentinel, less for one it slows less. Each
// workload's exponent is a calibrated constant of the benchmark (the
// driver's workload table; README.md); 0 would leave slowdowns in.
func NormFactor(nominalMS, wallMS, cpuMS, exponent float64) float64 {
	return cpuMS / wallMS * math.Pow(nominalMS/cpuMS, exponent)
}

// Despike replaces every value by the median of itself and its two
// neighbours (of itself and its one neighbour at the ends). The host's
// slow phases last seconds, many readings; a single reading twice its
// neighbours is a hiccup during the 10 ms the reading took, and would
// otherwise skew the two intervals it borders by a quarter each.
func Despike(values []float64) []float64 {
	out := make([]float64, len(values))
	for i := range values {
		out[i] = Median(values[max(i-1, 0):min(i+2, len(values))])
	}
	return out
}

// Normalise scales each raw time by its interval's factor. readings has
// one more element than raw: readings[i] was taken before interval i and
// readings[i+1] after it. Wall and CPU times are despiked first, each as
// its own series.
func Normalise(raw []float64, readings []Reading, nominalMS, exponent float64) (norm, factors []float64, err error) {
	if len(readings) != len(raw)+1 {
		return nil, nil, fmt.Errorf("normalise: %d intervals need %d sentinel readings, got %d",
			len(raw), len(raw)+1, len(readings))
	}
	walls, cpus := make([]float64, len(readings)), make([]float64, len(readings))
	for i, r := range readings {
		walls[i], cpus[i] = r.WallMS, r.CPUMS
	}
	walls, cpus = Despike(walls), Despike(cpus)
	norm = make([]float64, len(raw))
	factors = make([]float64, len(raw))
	for i, r := range raw {
		factors[i] = NormFactor(nominalMS, (walls[i]+walls[i+1])/2, (cpus[i]+cpus[i+1])/2, exponent)
		norm[i] = r * factors[i]
	}
	return norm, factors, nil
}

// NormaliseCPU scales CPU times the way Normalise scales wall times,
// except that nothing is taken out for time the CPU was taken away: a
// thread that is not running is not charged, so CPU time, unlike wall
// time, does not grow with it.
func NormaliseCPU(cpuMS []float64, readings []Reading, nominalMS, exponent float64) ([]float64, error) {
	running := make([]Reading, len(readings))
	for i, r := range readings {
		running[i] = Reading{WallMS: r.CPUMS, CPUMS: r.CPUMS}
	}
	norm, _, err := Normalise(cpuMS, running, nominalMS, exponent)
	return norm, err
}

// Quartiles returns the first and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method): the
// figures the acceptance check is stated in.
func Quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		lo = min(max(lo, 1), len(s))
		hi := min(lo+1, len(s))
		return s[lo-1] + (s[hi-1]-s[lo-1])*frac
	}
	return q(1), q(3)
}

// Spread is the distance between the quartiles as a share of the median.
func Spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := Quartiles(vs)
	return (q3 - q1) / Median(vs)
}

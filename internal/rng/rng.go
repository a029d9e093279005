// Package rng provides deterministic, stateless pseudo-randomness for
// the DRAM fault models.
//
// Every per-cell quantity in the simulator (RowHammer threshold,
// RowPress threshold, retention time) is a pure function of a seed and
// the cell's coordinates. This keeps experiments exactly reproducible,
// lets fault state be recomputed lazily instead of stored, and makes
// two devices built from the same profile and seed bit-identical.
package rng

// splitmix64 is the finalizer from the SplitMix64 generator
// (Steele et al., "Fast Splittable Pseudorandom Number Generators").
// It is a strong 64-bit mixer: every input bit affects every output
// bit, which is what we need to decorrelate neighboring cells.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash mixes an arbitrary number of 64-bit words into a single
// well-distributed 64-bit value. Hash is pure: the same inputs always
// produce the same output.
func Hash(words ...uint64) uint64 {
	return splitmix64(NewPrefix(words...).h)
}

// Split derives an independent child seed from a base seed and a
// label. Experiment harnesses use it to hand every experiment (and
// every device) its own stream: the children of one base seed are
// decorrelated from each other and from the base, so concurrent
// experiments never share generator state and a run's results do not
// depend on execution order.
func Split(seed uint64, label string) uint64 {
	words := make([]uint64, 0, (len(label)+7)/8+2)
	words = append(words, seed, uint64(len(label)))
	var w uint64
	var n uint
	for i := 0; i < len(label); i++ {
		w |= uint64(label[i]) << (8 * n)
		n++
		if n == 8 {
			words = append(words, w)
			w, n = 0, 0
		}
	}
	if n > 0 {
		words = append(words, w)
	}
	return Hash(words...)
}

// SplitN derives the i-th child seed of (seed, label) — the indexed
// form of Split used by the shard layer: shard unit i of an experiment
// draws from SplitN(experimentSeed, "unit", i). Children of one
// (seed, label) pair are decorrelated from each other, from the
// labeled Split child, and from the base seed, so concurrently
// executing shards never share generator state and a partitioned
// result cannot depend on how units were grouped into shards.
func SplitN(seed uint64, label string, i int) uint64 {
	return Hash(Split(seed, label), uint64(i))
}

// Uniform returns a deterministic draw in the half-open interval
// (0, 1], derived from the given words. The interval excludes zero so
// the draw can be used directly as a Pareto-style threshold scale
// without a divide-by-zero guard.
func Uniform(words ...uint64) float64 {
	return unit(Hash(words...))
}

// unit maps a hash onto (0, 1]: 53 bits of mantissa, +1 shifts the
// range from [0,1) to (0,1].
func unit(h uint64) float64 {
	return float64(h>>11+1) / float64(1<<53)
}

// Prefix is Hash's running state after a fixed leading run of words.
// Extending it by one last word costs two mixing rounds instead of one
// per word, which is what filling a table of per-cell draws that share
// their leading coordinates wants:
//
//	NewPrefix(a, b, c).Uniform(x) == Uniform(a, b, c, x)
type Prefix struct{ h uint64 }

// NewPrefix absorbs the leading words.
func NewPrefix(words ...uint64) Prefix {
	h := uint64(0x51a2c5fbcd9d9d1d)
	for _, w := range words {
		h = splitmix64(h ^ w)
	}
	return Prefix{h}
}

// Uniform returns Uniform of the prefix words followed by w.
func (p Prefix) Uniform(w uint64) float64 {
	return unit(splitmix64(splitmix64(p.h ^ w)))
}

// LogUniform returns a deterministic draw from a log-uniform
// distribution over [lo, hi]. It is used for retention times, which
// span several orders of magnitude across cells in real DRAM.
func LogUniform(lo, hi float64, words ...uint64) float64 {
	return NewLogScale(lo, hi).At(Uniform(words...))
}

// LogScale is a log-uniform distribution over [lo, hi] with ln(hi/lo)
// evaluated once, so mapping a uniform draw onto it costs one expf.
// At(u) computes lo*expf(u*lnf(hi/lo)), the float expression
// LogUniform has always evaluated, so hoisting the scale out of a
// per-cell loop cannot move a bit.
type LogScale struct {
	lo, ln float64
}

// NewLogScale returns the log-uniform scale over [lo, hi].
func NewLogScale(lo, hi float64) LogScale {
	if lo <= 0 || hi < lo {
		panic("rng: LogUniform requires 0 < lo <= hi")
	}
	return LogScale{lo: lo, ln: lnf(hi / lo)}
}

// Lo returns the lower bound of the scale.
func (s LogScale) Lo() float64 { return s.lo }

// Ln returns ln(hi/lo) as lnf computes it.
func (s LogScale) Ln() float64 { return s.ln }

// At maps a uniform draw u in [0, 1] onto the scale: lo*(hi/lo)^u.
func (s LogScale) At(u float64) float64 {
	return s.lo * expf(u*s.ln)
}

// lnf is a natural-log approximation accurate to ~1e-12 over the range
// used by the fault models (1e-6 .. 1e12). It reduces the argument to
// [1, 2) via exponent extraction and evaluates atanh-based series.
func lnf(x float64) float64 {
	if x <= 0 {
		panic("rng: lnf domain")
	}
	// Scale x into [1,2) by powers of two, counting the exponent.
	k := 0
	for x >= 2 {
		x /= 2
		k++
	}
	for x < 1 {
		x *= 2
		k--
	}
	// ln(x) = 2*atanh((x-1)/(x+1)); series converges fast on [1,2).
	t := (x - 1) / (x + 1)
	t2 := t * t
	sum := 0.0
	term := t
	for i := 1; i < 40; i += 2 {
		sum += term / float64(i)
		term *= t2
	}
	const ln2 = 0.6931471805599453
	return 2*sum + float64(k)*ln2
}

// expf is an exponential approximation matching lnf's accuracy.
func expf(x float64) float64 {
	const ln2 = 0.6931471805599453
	// Range-reduce: x = k*ln2 + r with |r| <= ln2/2.
	k := int(x/ln2 + 0.5)
	if x < 0 {
		k = int(x/ln2 - 0.5)
	}
	r := x - float64(k)*ln2
	// Taylor series for exp(r), |r| small.
	sum := 1.0
	term := 1.0
	for i := 1; i < 20; i++ {
		term *= r / float64(i)
		sum += term
	}
	// Scale by 2^k.
	for k > 0 {
		sum *= 2
		k--
	}
	for k < 0 {
		sum /= 2
		k++
	}
	return sum
}

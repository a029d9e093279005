package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	if Hash(1, 2, 3) != Hash(1, 2, 3) {
		t.Fatal("Hash is not deterministic")
	}
}

func TestHashDistinguishesInputs(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		h := Hash(i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
}

func TestHashOrderSensitive(t *testing.T) {
	if Hash(1, 2) == Hash(2, 1) {
		t.Fatal("Hash should be order-sensitive")
	}
}

func TestSplitDeterministicAndLabelSensitive(t *testing.T) {
	if Split(7, "expt:fig10") != Split(7, "expt:fig10") {
		t.Fatal("Split is not deterministic")
	}
	seen := map[uint64]string{}
	for _, label := range []string{
		"", "a", "b", "ab", "ba", "expt:fig10", "expt:fig12",
		"env:MfrA-DDR4-x4-2021", "a-very-long-label-spanning-multiple-words",
	} {
		h := Split(7, label)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Split collision: %q and %q", prev, label)
		}
		seen[h] = label
		if h == Split(8, label) {
			t.Fatalf("Split(%q) ignores the seed", label)
		}
		if h == 7 {
			t.Fatalf("Split(%q) returned the base seed", label)
		}
	}
}

func TestSplitNoLengthExtensionAliasing(t *testing.T) {
	// Labels that agree on a prefix but differ in length must not
	// collide via zero-padding of the final partial word.
	if Split(1, "abc") == Split(1, "abc\x00") {
		t.Fatal("trailing NUL aliases")
	}
	if Split(1, "12345678") == Split(1, "123456780") {
		t.Fatal("word-boundary aliasing")
	}
}

// TestSplitNStreamsDisjoint is the shard-seed property test: streams
// drawn from sibling SplitN seeds are pairwise non-overlapping over
// 10k draws each, and none of them collides with the parent stream.
// Overlap would mean two shards of one experiment could observe
// correlated randomness, making a partitioned result depend on how
// units were grouped.
func TestSplitNStreamsDisjoint(t *testing.T) {
	const (
		shards = 8
		draws  = 10_000
	)
	seen := make(map[uint64]int, (shards+1)*draws) // value -> stream id
	stream := func(id int, seed uint64) {
		t.Helper()
		for i := uint64(0); i < draws; i++ {
			v := Hash(seed, i)
			if prev, dup := seen[v]; dup {
				t.Fatalf("streams %d and %d overlap at draw %d", prev, id, i)
			}
			seen[v] = id
		}
	}
	stream(0, 7) // the parent seed's own stream
	for s := 0; s < shards; s++ {
		stream(s+1, SplitN(7, "unit", s))
	}
}

// TestSplitNDistinctFromSplit checks the indexed children do not alias
// the labeled child or each other across nearby indices and seeds.
func TestSplitNDistinctFromSplit(t *testing.T) {
	seen := map[uint64]string{}
	record := func(desc string, v uint64) {
		t.Helper()
		if prev, dup := seen[v]; dup {
			t.Fatalf("seed collision: %s and %s", prev, desc)
		}
		seen[v] = desc
	}
	for seed := uint64(1); seed <= 3; seed++ {
		record(fmt.Sprintf("Split(%d,unit)", seed), Split(seed, "unit"))
		for i := 0; i < 64; i++ {
			record(fmt.Sprintf("SplitN(%d,unit,%d)", seed, i), SplitN(seed, "unit", i))
		}
	}
}

// TestSplitNFixedVectors pins the derivation to exact values: the
// shard layer's determinism contract promises byte-identical reports
// across machines and Go versions, which requires the seed arithmetic
// itself to be pure integer math with no platform dependence. If this
// test fails, every committed golden fixture is invalid.
func TestSplitNFixedVectors(t *testing.T) {
	vectors := []struct {
		seed  uint64
		label string
		i     int
		want  uint64
	}{
		{7, "unit", 0, 0xe51a123e7756586b},
		{7, "unit", 1, 0x6a52fe93c6ebfc6b},
		{7, "unit", 255, 0x74decfd590e9b0f5},
		{0, "", 0, 0xe50d55842db11d8a},
		{0xdeadbeef, "bank", 3, 0x106acc26b11ea87d},
	}
	for _, v := range vectors {
		if got := SplitN(v.seed, v.label, v.i); got != v.want {
			t.Errorf("SplitN(%#x, %q, %d) = %#x, want %#x", v.seed, v.label, v.i, got, v.want)
		}
	}
}

func TestUniformRange(t *testing.T) {
	for i := uint64(0); i < 100000; i++ {
		u := Uniform(i, 42)
		if u <= 0 || u > 1 {
			t.Fatalf("Uniform(%d) = %v out of (0,1]", i, u)
		}
	}
}

func TestUniformMean(t *testing.T) {
	const n = 200000
	sum := 0.0
	for i := uint64(0); i < n; i++ {
		sum += Uniform(i, 7)
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Uniform mean = %v, want ~0.5", mean)
	}
}

func TestUniformQuickProperties(t *testing.T) {
	f := func(a, b uint64) bool {
		u := Uniform(a, b)
		return u > 0 && u <= 1 && u == Uniform(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogUniformRange(t *testing.T) {
	lo, hi := 1e-3, 1e9
	for i := uint64(0); i < 20000; i++ {
		v := LogUniform(lo, hi, i)
		if v < lo*0.999 || v > hi*1.001 {
			t.Fatalf("LogUniform out of range: %v", v)
		}
	}
}

func TestLogUniformDegenerate(t *testing.T) {
	if v := LogUniform(5, 5, 1); math.Abs(v-5) > 1e-9 {
		t.Fatalf("LogUniform(5,5) = %v, want 5", v)
	}
}

func TestLogUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on bad domain")
		}
	}()
	LogUniform(-1, 1, 0)
}

func TestLnfAgainstMath(t *testing.T) {
	for _, x := range []float64{1e-6, 0.5, 1, 1.5, 2, 10, 1e3, 1e9, 1e12} {
		got := lnf(x)
		want := math.Log(x)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("lnf(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestExpfAgainstMath(t *testing.T) {
	for _, x := range []float64{-20, -1, -0.1, 0, 0.1, 1, 5, 20} {
		got := expf(x)
		want := math.Exp(x)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("expf(%v) = %v, want %v", x, got, want)
		}
	}
}

// powf is base**exp through the lnf/expf pair, the composition the
// retention draws are built from.
func powf(base, exp float64) float64 {
	return expf(exp * lnf(base))
}

func TestPowfQuick(t *testing.T) {
	f := func(b8, e8 uint8) bool {
		base := 0.5 + float64(b8)/32 // 0.5 .. ~8.5
		exp := float64(e8)/128 - 1   // -1 .. ~1
		got := powf(base, exp)
		want := math.Pow(base, exp)
		return math.Abs(got-want) <= 1e-8*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// LogScale hoists lnf(hi/lo) out of LogUniform; the draw it maps must
// be the float LogUniform's lo*powf(hi/lo, u) expression gives, bit for
// bit, or every cached retention decision would move.
func TestLogScaleBitIdentical(t *testing.T) {
	for _, b := range [][2]float64{{0.1, 1e6}, {1e-3, 1e9}, {5, 5}, {2, 3}} {
		s := NewLogScale(b[0], b[1])
		for i := uint64(0); i < 20000; i++ {
			u := Uniform(i, 99)
			if got, want := s.At(u), b[0]*powf(b[1]/b[0], u); got != want {
				t.Fatalf("scale %v: At(%v) = %v, lo*powf = %v", b, u, got, want)
			}
			if got, want := LogUniform(b[0], b[1], i, 99), s.At(u); got != want {
				t.Fatalf("scale %v: LogUniform = %v, At = %v", b, got, want)
			}
		}
	}
}

// retentionRelErr bounds the relative error of lnf and expf against
// math over the retention domain: ln = lnf(1e7) (RetentionMaxSec /
// RetentionMinSec of faults.Default) and exponents u*ln for u in
// [0, 1]. The retention screen's band margin (faults.RetentionMargin)
// is derived from this bound; a series change that loosens it must
// fail here before it can make the screen unsound.
const retentionRelErr = 1e-12

func TestLnfExpfRelativeErrorOverRetentionDomain(t *testing.T) {
	relErr := func(got, want float64) float64 { return math.Abs(got/want - 1) }
	ln := lnf(1e7)
	if e := relErr(ln, math.Log(1e7)); e > retentionRelErr {
		t.Fatalf("lnf(1e7) relative error %g > %g", e, retentionRelErr)
	}
	worst := 0.0
	check := func(u float64) {
		x := u * ln
		if e := relErr(expf(x), math.Exp(x)); e > worst {
			worst = e
		}
		// The ratio of every x the domain spans, too: lnf must hold the
		// bound wherever a scale could be built inside it.
		if r := math.Exp(x); r > 1 {
			if e := relErr(lnf(r), math.Log(r)); e > worst {
				worst = e
			}
		}
	}
	const grid = 200_000
	for i := 0; i <= grid; i++ {
		check(float64(i) / grid)
	}
	for i := uint64(0); i < 200_000; i++ {
		check(Uniform(i, 0x7e7))
	}
	if worst > retentionRelErr {
		t.Fatalf("lnf/expf relative error %g exceeds %g over the retention domain", worst, retentionRelErr)
	}
	t.Logf("worst relative error over the retention domain: %.3g", worst)
}

// A Prefix extended by one word is Uniform of the whole word list.
func TestPrefixMatchesUniform(t *testing.T) {
	f := func(a, b, c, x uint64) bool {
		return NewPrefix(a, b, c).Uniform(x) == Uniform(a, b, c, x) &&
			NewPrefix().Uniform(x) == Uniform(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

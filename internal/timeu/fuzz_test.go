package timeu

import (
	"math"
	"math/big"
	"regexp"
	"strings"
	"testing"
)

// literalNumber is the numeric part Parse documents: one optional sign,
// then digits with an optional decimal point.
var literalNumber = regexp.MustCompile(`^[+-]?([0-9]+\.?[0-9]*|\.[0-9]*)$`)

// exactValue evaluates a time literal with math/big, independently of
// Parse's int64 arithmetic: the value in nanoseconds, and whether the
// literal is in Parse's grammar at all. "inf" is Infinity, 2^62 − 1.
func exactValue(s string) (*big.Rat, bool) {
	s = strings.TrimSpace(s)
	if s == "inf" {
		return new(big.Rat).SetInt64(1<<62 - 1), true
	}
	for _, u := range []struct {
		suffix string
		unit   int64
	}{{"min", int64(Minute)}, {"ns", 1}, {"us", int64(Microsecond)}, {"ms", int64(Millisecond)}, {"s", int64(Second)}} {
		num, ok := strings.CutSuffix(s, u.suffix)
		if !ok {
			continue
		}
		num = strings.TrimSpace(num)
		if !literalNumber.MatchString(num) {
			return nil, false
		}
		neg := strings.HasPrefix(num, "-")
		num = strings.TrimLeft(num, "+-")
		whole, frac, _ := strings.Cut(num, ".")
		digits, _ := new(big.Int).SetString("0"+whole+frac, 10)
		v := new(big.Rat).SetFrac(digits, new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(len(frac))), nil))
		v.Mul(v, new(big.Rat).SetInt64(u.unit))
		if neg {
			v.Neg(v)
		}
		return v, true
	}
	return nil, false
}

// FuzzParse hardens the time parser against arbitrary input: its trim
// must equal strings.TrimSpace, and it must never panic; on success the
// value must equal the literal evaluated exactly with math/big (so a
// literal beyond int64 must fail rather than wrap), and it must
// re-render and re-parse to itself (canonical fixed point).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"5ms", "4.75us", "-3ms", "0.000000001s", "10min", "", "ms",
		"1.2.3ms", "9223372036854775807ns", "1e3ms", " 42 us ", ".5s",
		"10000000000s", "200000000min", "-9223372036854775808ns", "--3.5ms",
		"-+3ms", "+.5ms", "-9223372036854775807ns", "9223372036.854775807s",
		"9223372036.854775808s", "153722867.280912930min",
		"inf", "4611686018427387903ns",
		// Unicode white space (U+0085, U+00A0, U+2003) around and inside
		// values: trimSpace's ASCII fast path must leave these to its
		// rune loop.
		"\u00855ms", "5ms\u0085", "\u00a04.75us", "4.75us\u00a0", "\u2003-3ms\u2003",
		"5\u00a0ms", "\u0085 10min \u00a0", "inf\u2003",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		trimmed := strings.TrimSpace(s)
		if got := trimSpace(s); got != trimmed {
			t.Fatalf("trimSpace(%q) = %q, want %q", s, got, trimmed)
		}
		if got := trimSpace([]byte(s)); string(got) != trimmed {
			t.Fatalf("trimSpace([]byte(%q)) = %q, want %q", s, got, trimmed)
		}
		d, err := Parse(s)
		if err != nil {
			return
		}
		want, ok := exactValue(s)
		if !ok {
			t.Fatalf("Parse(%q) = %v, but the literal is outside Parse's grammar", s, d)
		}
		if got := new(big.Rat).SetInt64(int64(d)); got.Cmp(want) != 0 {
			t.Fatalf("Parse(%q) = %d ns, but the literal's exact value is %s ns", s, int64(d), want.RatString())
		}
		if d == math.MinInt64 {
			t.Fatalf("Parse(%q) = MinInt64, whose magnitude exceeds MaxInt64", s)
		}
		round, err := Parse(d.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %v, but its String %q does not re-parse: %v", s, d, d.String(), err)
		}
		if round != d {
			t.Fatalf("Parse(%q) = %v, round-trips to %v", s, d, round)
		}
	})
}

// Package timeu provides the exact integer time arithmetic underlying the
// time-disparity analysis.
//
// All analysis in this repository is performed on an integer timeline so
// that the floor/ceiling expressions of Theorem 2 and Algorithm 1 of the
// paper are exact. Time values are signed 64-bit nanosecond counts, which
// covers simulated horizons of roughly ±292 years — far beyond the
// hyperperiods that occur in automotive task sets.
package timeu

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Time is a point on, or a distance along, the discrete simulation
// timeline, in nanoseconds. Negative values are meaningful: the analysis
// places the release of the job under analysis at 0 and reasons about
// source timestamps in the past, and the best-case backward time of a
// chain may itself be negative (Lemma 5 of the paper).
type Time int64

// Common spans, as multiples of a nanosecond.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
)

// Infinity is a sentinel upper bound larger than any horizon used in
// practice. It is not saturating: callers must not add to it repeatedly.
const Infinity Time = 1<<62 - 1

// Milliseconds returns d expressed in milliseconds as a float64.
func (d Time) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Microseconds returns d expressed in microseconds as a float64.
func (d Time) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds returns d expressed in seconds as a float64.
func (d Time) Seconds() float64 { return float64(d) / float64(Second) }

// String renders the time with a unit chosen for readability: exact
// integral milliseconds or microseconds when possible, fractional
// milliseconds above 1 ms, fractional microseconds below. Rendering is
// exact (integer-based), so String/Parse round-trips for every value.
func (d Time) String() string {
	switch {
	case d == Infinity:
		return "inf"
	case d%Millisecond == 0:
		return strconv.FormatInt(int64(d/Millisecond), 10) + "ms"
	case d >= Millisecond || d <= -Millisecond:
		return formatFrac(d, Millisecond, 6, "ms")
	case d%Microsecond == 0:
		return strconv.FormatInt(int64(d/Microsecond), 10) + "us"
	default:
		return formatFrac(d, Microsecond, 3, "us")
	}
}

// formatFrac renders d as a decimal number of the given unit with up to
// `digits` fractional digits (trailing zeros trimmed), exactly.
func formatFrac(d, unit Time, digits int, suffix string) string {
	neg := d < 0
	if neg {
		d = -d
	}
	intPart := strconv.FormatInt(int64(d/unit), 10)
	frac := strconv.FormatInt(int64(d%unit), 10)
	for len(frac) < digits {
		frac = "0" + frac
	}
	frac = strings.TrimRight(frac, "0")
	out := intPart + "." + frac + suffix
	if neg {
		out = "-" + out
	}
	return out
}

// Parse parses a time written as a decimal number followed by one of the
// units "ns", "us", "ms", "s", or "min". A bare number is rejected so that
// configuration files are always explicit about units. The number takes
// at most one sign, and its value must be a whole number of nanoseconds
// of magnitude at most MaxInt64: a literal beyond that range is an error,
// never a wrapped value. The literal "inf", which String renders for
// Infinity, parses back to Infinity.
func Parse(s string) (Time, error) { return parse(s) }

// ParseBytes is Parse on a byte slice. It allocates only for its error.
func ParseBytes(b []byte) (Time, error) { return parse(b) }

func parse[S string | []byte](s S) (Time, error) {
	s = trimSpace(s)
	if len(s) == 3 && s[0] == 'i' && s[1] == 'n' && s[2] == 'f' {
		return Infinity, nil
	}
	unit, suffix := Time(0), 0
	switch n := len(s); {
	case n >= 3 && s[n-3] == 'm' && s[n-2] == 'i' && s[n-1] == 'n':
		unit, suffix = Minute, 3
	case n >= 2 && s[n-1] == 's' && s[n-2] == 'n':
		unit, suffix = Nanosecond, 2
	case n >= 2 && s[n-1] == 's' && s[n-2] == 'u':
		unit, suffix = Microsecond, 2
	case n >= 2 && s[n-1] == 's' && s[n-2] == 'm':
		unit, suffix = Millisecond, 2
	case n >= 1 && s[n-1] == 's':
		unit, suffix = Second, 1
	default:
		return 0, fmt.Errorf("timeu: %q has no unit suffix (ns/us/ms/s/min)", s)
	}
	num := trimSpace(s[:len(s)-suffix])
	if len(num) == 0 {
		return 0, fmt.Errorf("timeu: %q has no numeric part", s)
	}
	neg := num[0] == '-'
	if neg || num[0] == '+' {
		num = num[1:]
	}
	// Exact decimal parsing in checked int64 arithmetic: "4.75us" is
	// exactly 4750 ns regardless of float rounding, and a value past
	// MaxInt64 is reported instead of wrapping.
	var whole int64
	i := 0
	for ; i < len(num) && '0' <= num[i] && num[i] <= '9'; i++ {
		d := int64(num[i] - '0')
		if whole > (math.MaxInt64-d)/10 {
			return 0, fmt.Errorf("timeu: %q is out of range", s)
		}
		whole = whole*10 + d
	}
	frac := num[i:]
	if len(frac) > 0 && frac[0] == '.' {
		frac = frac[1:]
	} else if len(frac) > 0 || i == 0 {
		return 0, fmt.Errorf("timeu: cannot parse %q", s)
	}
	if whole > math.MaxInt64/int64(unit) {
		return 0, fmt.Errorf("timeu: %q is out of range", s)
	}
	total := whole * int64(unit)
	scale := int64(unit)
	for j := 0; j < len(frac); j++ {
		d := frac[j]
		if d < '0' || d > '9' {
			return 0, fmt.Errorf("timeu: cannot parse %q", s)
		}
		if scale%10 != 0 {
			return 0, fmt.Errorf("timeu: %q has more precision than a nanosecond", s)
		}
		scale /= 10
		add := int64(d-'0') * scale
		if total > math.MaxInt64-add {
			return 0, fmt.Errorf("timeu: %q is out of range", s)
		}
		total += add
	}
	if neg {
		total = -total
	}
	return Time(total), nil
}

// trimSpace is strings.TrimSpace for either argument type: it drops
// leading and trailing Unicode white space. A literal whose first and
// last bytes are ASCII above ' ' has none to drop and is returned as
// it is; only the others decode runes.
func trimSpace[S string | []byte](s S) S {
	if n := len(s); n > 0 && ' ' < s[0] && s[0] < utf8.RuneSelf && ' ' < s[n-1] && s[n-1] < utf8.RuneSelf {
		return s
	}
	var buf [utf8.UTFMax]byte
	for len(s) > 0 {
		r, n := rune(s[0]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(buf[:copy(buf[:], s)])
		}
		if !unicode.IsSpace(r) {
			break
		}
		s = s[n:]
	}
	for len(s) > 0 {
		r, n := rune(s[len(s)-1]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeLastRune(buf[:copy(buf[:], s[max(0, len(s)-utf8.UTFMax):])])
		}
		if !unicode.IsSpace(r) {
			break
		}
		s = s[:len(s)-n]
	}
	return s
}

// MustParse is Parse for trusted literals; it panics on error.
func MustParse(s string) Time {
	d, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return d
}

// FloorDiv returns ⌊a/b⌋ with mathematical (round-toward-negative-infinity)
// semantics for negative a. b must be positive. Go's native integer
// division truncates toward zero, which is wrong for the negative
// numerators produced by Theorem 2's recursion.
func FloorDiv(a, b Time) int64 {
	if b <= 0 {
		panic("timeu: FloorDiv with non-positive divisor")
	}
	q := int64(a / b)
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// CeilDiv returns ⌈a/b⌉ with mathematical semantics for negative a.
// b must be positive.
func CeilDiv(a, b Time) int64 {
	if b <= 0 {
		panic("timeu: CeilDiv with non-positive divisor")
	}
	q := int64(a / b)
	if a%b != 0 && a > 0 {
		q++
	}
	return q
}

// FloorTo rounds a down to the nearest multiple of b (b positive).
func FloorTo(a, b Time) Time { return Time(FloorDiv(a, b)) * b }

// CeilTo rounds a up to the nearest multiple of b (b positive).
func CeilTo(a, b Time) Time { return Time(CeilDiv(a, b)) * b }

// Abs returns |d|.
func Abs(d Time) Time {
	if d < 0 {
		return -d
	}
	return d
}

// Max returns the larger of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// GCD returns the greatest common divisor of a and b. GCD(0, x) = x.
func GCD(a, b Time) Time {
	a, b = Abs(a), Abs(b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b, or panics on overflow.
// LCM(0, x) = 0.
func LCM(a, b Time) Time {
	r, ok := LCMChecked(a, b)
	if !ok {
		panic("timeu: LCM overflow")
	}
	return r
}

// LCMChecked returns the least common multiple of a and b, reporting
// overflow instead of panicking. Many pairwise-coprime periods (e.g.
// 7ms, 11ms, 13ms, ... primes) grow the LCM multiplicatively, and a
// silent int64 wrap would turn a hyperperiod into garbage; callers that
// merely *prefer* a finite hyperperiod (the simulator's jump-ahead, the
// auto-horizon derivation) use this form and fall back cleanly.
// LCMChecked(0, x) = 0.
func LCMChecked(a, b Time) (Time, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	g := GCD(a, b)
	q := a / g
	r := q * b
	if r/b != q {
		return 0, false
	}
	return Abs(r), true
}

// Hyperperiod returns the least common multiple of all periods, the length
// of the cyclic schedule window of a periodic task set.
func Hyperperiod(periods []Time) Time {
	h := Time(1)
	for _, p := range periods {
		if p <= 0 {
			panic("timeu: Hyperperiod with non-positive period")
		}
		h = LCM(h, p)
	}
	return h
}

// HyperperiodChecked is Hyperperiod with explicit errors instead of
// panics: non-positive periods and int64 overflow (no finite
// hyperperiod representable on the nanosecond timeline) are reported to
// the caller. The horizon parameter, when positive, additionally bounds
// the result: a hyperperiod beyond the horizon is useless to callers
// that want at least one full cyclic window inside a simulated span,
// and is reported as "no finite hyperperiod within horizon".
func HyperperiodChecked(periods []Time, horizon Time) (Time, error) {
	h := Time(1)
	for _, p := range periods {
		if p <= 0 {
			return 0, fmt.Errorf("timeu: non-positive period %v in hyperperiod", p)
		}
		var ok bool
		h, ok = LCMChecked(h, p)
		if !ok {
			return 0, fmt.Errorf("timeu: hyperperiod overflows int64 nanoseconds (no finite hyperperiod)")
		}
		if horizon > 0 && h > horizon {
			return 0, fmt.Errorf("timeu: no finite hyperperiod within horizon %v (LCM already %v)", horizon, h)
		}
	}
	return h, nil
}

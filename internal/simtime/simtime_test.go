package simtime

import (
	"testing"
	"testing/quick"
)

func TestAddSaturates(t *testing.T) {
	if Never.Add(Second) != Never {
		t.Fatal("Never + d must stay Never")
	}
	if Time(1).Add(Infinite) != Never {
		t.Fatal("t + Infinite must be Never")
	}
	if Time(1<<62).Add(Duration(1<<62)) != Never {
		t.Fatal("overflowing Add must saturate to Never")
	}
	if Time(5).Add(Millis(1)) != Time(5+1e6) {
		t.Fatal("plain Add wrong")
	}
}

func TestSub(t *testing.T) {
	if Time(10).Sub(Time(3)) != 7 {
		t.Fatal("Sub wrong")
	}
	if Time(3).Sub(Time(10)) != -7 {
		t.Fatal("negative Sub wrong")
	}
}

func TestComparisons(t *testing.T) {
	if !Time(1).Before(Time(2)) || Time(2).Before(Time(1)) {
		t.Fatal("Before wrong")
	}
	if !Time(2).After(Time(1)) || Time(1).After(Time(2)) {
		t.Fatal("After wrong")
	}
}

func TestUnitConstructors(t *testing.T) {
	if Micros(3) != 3000 || Millis(3) != 3e6 || Seconds(3) != 3e9 {
		t.Fatal("unit constructors wrong")
	}
}

func TestConversions(t *testing.T) {
	d := Millis(1500)
	if d.Seconds() != 1.5 || d.Millis() != 1500 || d.Micros() != 1.5e6 {
		t.Fatal("duration conversions wrong")
	}
	tm := Time(Seconds(2))
	if tm.Seconds() != 2 || tm.Millis() != 2000 || tm.Micros() != 2e6 {
		t.Fatal("time conversions wrong")
	}
}

func TestString(t *testing.T) {
	cases := map[Duration]string{
		0:           "0s",
		500:         "500ns",
		Micros(250): "250µs",
		Millis(5):   "5ms",
		Seconds(2):  "2s",
		-Millis(5):  "-5ms",
		Infinite:    "inf",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("(%d).String() = %q, want %q", int64(d), got, want)
		}
	}
	if Never.String() != "never" {
		t.Error("Never.String() wrong")
	}
}

func TestMinMaxClamp(t *testing.T) {
	if Min(1, 2) != 1 || Min(2, 1) != 1 || Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Fatal("Min/Max wrong")
	}
	if MinDur(1, 2) != 1 || MinDur(2, 1) != 1 {
		t.Fatal("MinDur wrong")
	}
}

func TestScaleDuration(t *testing.T) {
	// 10ms × 3/4 = 7.5ms
	if got := ScaleDuration(Millis(10), 3, 4); got != Micros(7500) {
		t.Fatalf("ScaleDuration = %v, want 7.5ms", got)
	}
	// large value that would overflow naive multiplication
	big := Seconds(3600)
	if got := ScaleDuration(big, 999999, 1000000); got <= 0 || got > big {
		t.Fatalf("ScaleDuration big value wrong: %v", got)
	}
}

func TestScaleDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero denominator did not panic")
		}
	}()
	ScaleDuration(Second, 1, 0)
}

// Property: ScaleDuration(d, n, den) is within 1ns of float math for sane inputs.
func TestQuickScaleDuration(t *testing.T) {
	f := func(dRaw int32, nRaw, denRaw uint16) bool {
		d := Duration(int64(dRaw) + (1 << 31)) // positive, < 2^32 ns
		n := int64(nRaw)
		den := int64(denRaw) + 1
		got := ScaleDuration(d, n, den)
		want := float64(d) * float64(n) / float64(den)
		diff := float64(got) - want
		return diff <= 1 && diff >= -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleDurationCeil(t *testing.T) {
	if got := ScaleDurationCeil(10, 1, 3); got != 4 {
		t.Fatalf("ceil(10/3) = %v, want 4", got)
	}
	if got := ScaleDurationCeil(9, 1, 3); got != 3 {
		t.Fatalf("ceil(9/3) = %v, want 3", got)
	}
	if got := ScaleDurationCeil(Millis(10), 3, 4); got != Micros(7500) {
		t.Fatalf("exact ceil = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero denominator did not panic")
		}
	}()
	ScaleDurationCeil(1, 1, 0)
}

// Property: ceil ≥ floor, and they differ by at most 1ns.
func TestQuickScaleCeilVsFloor(t *testing.T) {
	f := func(dRaw uint32, nRaw, denRaw uint16) bool {
		d := Duration(dRaw)
		n := int64(nRaw)
		den := int64(denRaw) + 1
		fl := ScaleDuration(d, n, den)
		ce := ScaleDurationCeil(d, n, den)
		return ce >= fl && ce-fl <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

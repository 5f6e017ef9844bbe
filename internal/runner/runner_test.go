package runner

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrderDeterministic(t *testing.T) {
	items := make([]int, 257)
	for i := range items {
		items[i] = i
	}
	for _, par := range []int{1, 2, 8, 64, 0} {
		got := Map(par, items, func(v int) int { return v * v })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestMapIdx(t *testing.T) {
	items := []string{"a", "b", "c"}
	got := MapIdx(2, items, func(i int, s string) string { return fmt.Sprintf("%d%s", i, s) })
	want := []string{"0a", "1b", "2c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestEmpty(t *testing.T) {
	if got := Map(4, nil, func(int) int { return 1 }); len(got) != 0 {
		t.Fatalf("want empty, got %v", got)
	}
}

func TestAllItemsRunOnce(t *testing.T) {
	const n = 1000
	var counts [n]atomic.Int64
	Map(8, make([]struct{}, n), func(struct{}) int { return 0 })
	MapIdx(8, make([]struct{}, n), func(i int, _ struct{}) int {
		counts[i].Add(1)
		return 0
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("item %d ran %d times", i, c)
		}
	}
}

func TestPanicPropagates(t *testing.T) {
	for _, par := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("parallel=%d: panic did not propagate", par)
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "boom") {
					t.Fatalf("parallel=%d: panic message %q missing cause", par, msg)
				}
			}()
			Map(par, []int{0, 1, 2, 3}, func(v int) int {
				if v == 2 {
					panic("boom")
				}
				return v
			})
		}()
	}
}

func TestPanicLowestIndexWins(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "spec 1 ") {
			t.Fatalf("want lowest-index panic reported, got %q", msg)
		}
	}()
	Map(8, []int{0, 1, 2, 3, 4, 5, 6, 7}, func(v int) int {
		if v >= 1 {
			panic(fmt.Sprintf("boom%d", v))
		}
		return v
	})
}

func TestSetDefault(t *testing.T) {
	defer SetDefault(0)
	SetDefault(3)
	if Default() != 3 {
		t.Fatalf("Default() = %d after SetDefault(3)", Default())
	}
	SetDefault(0)
	if Default() < 1 {
		t.Fatalf("Default() = %d, want >= 1", Default())
	}
	SetDefault(-5)
	if Default() < 1 {
		t.Fatalf("Default() = %d after SetDefault(-5), want GOMAXPROCS", Default())
	}
}

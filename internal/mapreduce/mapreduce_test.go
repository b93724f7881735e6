package mapreduce

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachOrderPreserved(t *testing.T) {
	inputs := []int{5, 3, 8, 1, 9, 2}
	out, err := ForEach(4, inputs, func(x int) (int, error) {
		return x * x, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range inputs {
		if out[i] != x*x {
			t.Errorf("out[%d] = %d, want %d", i, out[i], x*x)
		}
	}
}

func TestForEachError(t *testing.T) {
	boom := errors.New("nope")
	_, err := ForEach(2, []int{1, 2, 3}, func(x int) (int, error) {
		if x == 3 {
			return 0, boom
		}
		return x, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("expected boom, got %v", err)
	}
}

// TestForEachLowestFailingInput: with every input from 4,000 on failing,
// the error always names input 4,000 however the workers interleave, and
// claiming stops soon after the first failure instead of running the rest.
func TestForEachLowestFailingInput(t *testing.T) {
	const n, firstBad = 10000, 4000
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = i
	}
	for rep := 0; rep < 50; rep++ {
		var calls atomic.Int64
		_, err := ForEach(8, inputs, func(x int) (int, error) {
			calls.Add(1)
			if x >= firstBad {
				return 0, fmt.Errorf("bad %d", x)
			}
			return x, nil
		})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("input %d: bad %d", firstBad, firstBad)) {
			t.Fatalf("rep %d: error %v, want input %d's", rep, err, firstBad)
		}
		if c := calls.Load(); c > n/2 {
			t.Fatalf("rep %d: %d of %d inputs ran after the first failure at %d", rep, c, n, firstBad)
		}
	}
}

func TestForEachRunsAll(t *testing.T) {
	var count atomic.Int64
	n := 500
	inputs := make([]int, n)
	_, err := ForEach(8, inputs, func(x int) (struct{}, error) {
		count.Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != int64(n) {
		t.Errorf("ran %d, want %d", count.Load(), n)
	}
}

// TestDefaultWorkers: a pool sized below one still runs every input (on one
// worker) instead of silently returning zero values.
func TestDefaultWorkers(t *testing.T) {
	for _, workers := range []int{0, -3} {
		out, err := ForEach(workers, []int{1, 2, 3}, func(x int) (int, error) { return x + 1, nil })
		if err != nil || len(out) != 3 || out[0] != 2 || out[2] != 4 {
			t.Errorf("workers %d: got %v, %v; want [2 3 4]", workers, out, err)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	got, err := ForEach(4, []int(nil), func(v int) (int, error) { return v, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %v, want empty", got)
	}
}

// BenchmarkForEachTiny measures the dispatch cost ForEach adds per input:
// 200,000 no-op inputs at 2 workers, reported as ns/input.
func BenchmarkForEachTiny(b *testing.B) {
	inputs := make([]int, 200000)
	for i := 0; i < b.N; i++ {
		if _, err := ForEach(2, inputs, func(x int) (int, error) { return x, nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(inputs)), "ns/input")
}

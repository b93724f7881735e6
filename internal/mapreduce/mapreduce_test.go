package mapreduce

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachOrderPreserved(t *testing.T) {
	inputs := []int{5, 3, 8, 1, 9, 2}
	out, err := ForEach(Config{Workers: 4}, inputs, func(x int) (int, error) {
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
	_, err := ForEach(Config{Workers: 2}, []int{1, 2, 3}, func(x int) (int, error) {
		if x == 3 {
			return 0, boom
		}
		return x, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("expected boom, got %v", err)
	}
}

func TestForEachRunsAll(t *testing.T) {
	var count atomic.Int64
	n := 500
	inputs := make([]int, n)
	_, err := ForEach(Config{Workers: 8}, inputs, func(x int) (struct{}, error) {
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

func TestDefaultWorkers(t *testing.T) {
	if (Config{}).workers() < 1 {
		t.Error("default workers must be >= 1")
	}
	if (Config{Workers: -3}).workers() < 1 {
		t.Error("negative workers must fall back to NumCPU")
	}
}

package lb

import (
	"fmt"
	"testing"
)

func TestRoundRobinCycles(t *testing.T) {
	b := NewRoundRobin()
	lens := []int{0, 0, 0}
	for i := 0; i < 9; i++ {
		if got, want := b.Pick(lens, nil), i%3; got != want {
			t.Fatalf("pick %d = %d, want %d", i, got, want)
		}
	}
}

func TestRoundRobinSkipsUnhealthy(t *testing.T) {
	b := NewRoundRobin()
	lens := []int{0, 0, 0}
	healthy := []bool{true, false, true}
	counts := make([]int, 3)
	for i := 0; i < 12; i++ {
		counts[b.Pick(lens, healthy)]++
	}
	if counts[1] != 0 {
		t.Errorf("unhealthy worker picked %d times", counts[1])
	}
	if counts[0] != 6 || counts[2] != 6 {
		t.Errorf("healthy split %v, want even", counts)
	}
}

func TestJSQPicksShortest(t *testing.T) {
	b := NewJoinShortestQueue()
	if got := b.Pick([]int{3, 1, 2}, nil); got != 1 {
		t.Errorf("pick = %d, want 1", got)
	}
	// Ties break to the lowest index, matching the simulator's original
	// SQF scan.
	if got := b.Pick([]int{2, 1, 1}, nil); got != 1 {
		t.Errorf("tie pick = %d, want 1", got)
	}
	// The shortest queue is skipped when unhealthy.
	if got := b.Pick([]int{3, 1, 2}, []bool{true, false, true}); got != 2 {
		t.Errorf("masked pick = %d, want 2", got)
	}
}

func TestP2CPrefersShorterQueues(t *testing.T) {
	b := NewPowerOfTwoChoices(1)
	lens := []int{10, 0, 10, 10}
	counts := make([]int, 4)
	for i := 0; i < 400; i++ {
		counts[b.Pick(lens, nil)]++
	}
	// Worker 1 wins every pair it appears in: P(appear) = 1 - C(3,2)/C(4,2)
	// = 1/2, so it should take about half the traffic and strictly more
	// than any equal-length worker.
	if counts[1] < 120 {
		t.Errorf("short queue picked only %d/400", counts[1])
	}
	for w := 0; w < 4; w++ {
		if w != 1 && counts[w] >= counts[1] {
			t.Errorf("worker %d (len 10) picked %d >= short worker's %d", w, counts[w], counts[1])
		}
	}
}

func TestP2CRespectsHealthMask(t *testing.T) {
	b := NewPowerOfTwoChoices(7)
	lens := []int{0, 0, 0, 0}
	healthy := []bool{false, true, false, true}
	for i := 0; i < 200; i++ {
		if w := b.Pick(lens, healthy); w != 1 && w != 3 {
			t.Fatalf("picked unhealthy worker %d", w)
		}
	}
}

func TestAllUnhealthyFallsBack(t *testing.T) {
	lens := []int{1, 2}
	none := []bool{false, false}
	for _, b := range []Balancer{NewRoundRobin(), NewJoinShortestQueue(), NewPowerOfTwoChoices(1)} {
		if w := b.Pick(lens, none); w < 0 || w >= len(lens) {
			t.Errorf("%s: all-unhealthy pick = %d, want in-range fallback", b.Name(), w)
		}
	}
}

func TestPickEmpty(t *testing.T) {
	for _, b := range []Balancer{NewRoundRobin(), NewJoinShortestQueue(), NewPowerOfTwoChoices(1)} {
		if w := b.Pick(nil, nil); w != -1 {
			t.Errorf("%s: empty pick = %d, want -1", b.Name(), w)
		}
	}
}

func TestSingleWorker(t *testing.T) {
	for _, b := range []Balancer{NewRoundRobin(), NewJoinShortestQueue(), NewPowerOfTwoChoices(1)} {
		for i := 0; i < 3; i++ {
			if w := b.Pick([]int{5}, nil); w != 0 {
				t.Errorf("%s: single-worker pick = %d", b.Name(), w)
			}
		}
	}
}

func TestBalancersConcurrentUse(t *testing.T) {
	// Exercised under -race in the verify path: concurrent Picks must not
	// race on internal state.
	lens := make([]int, 16)
	healthy := make([]bool, 16)
	for i := range healthy {
		healthy[i] = i%3 != 0
	}
	for _, b := range []Balancer{NewRoundRobin(), NewJoinShortestQueue(), NewPowerOfTwoChoices(1)} {
		done := make(chan struct{})
		for g := 0; g < 4; g++ {
			go func() {
				defer func() { done <- struct{}{} }()
				for i := 0; i < 500; i++ {
					if w := b.Pick(lens, healthy); w < 0 || w >= 16 {
						panic(fmt.Sprintf("%s: out-of-range pick %d", b.Name(), w))
					}
				}
			}()
		}
		for g := 0; g < 4; g++ {
			<-done
		}
	}
}

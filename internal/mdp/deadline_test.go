package mdp

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestValueIterationDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomMDP(rng, 200, 4, 8)
	_, err := c.Solve(SolveOptions{
		Gamma:    0.999999,
		Tol:      1e-300, // unreachable: force the deadline path
		Deadline: time.Now().Add(5 * time.Millisecond),
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

func TestValueIterationNoDeadlineByDefault(t *testing.T) {
	if _, err := twoStateChain().Solve(SolveOptions{Gamma: 0.9}); err != nil {
		t.Fatalf("default solve failed: %v", err)
	}
}

// Package quickseed is test support: it runs testing/quick properties
// from a fixed seed, so a property test draws the same cases on every
// run and a failure names the seed that reproduces it.  (A nil
// quick.Config seeds from the clock, which is how a one-in-a-thousand
// counterexample becomes a tier-1 flake nobody can replay.)
package quickseed

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
)

// defaultSeed is the seed every property test runs from unless
// ALADDIN_QUICK_SEED overrides it.
const defaultSeed = 20260927

// Seed returns the property tests' seed: ALADDIN_QUICK_SEED when set
// (to reproduce a reported failure, or to explore), else the fixed
// default.
func Seed(t testing.TB) int64 {
	t.Helper()
	v := os.Getenv("ALADDIN_QUICK_SEED")
	if v == "" {
		return defaultSeed
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("ALADDIN_QUICK_SEED=%q: %v", v, err)
	}
	return seed
}

// Check runs quick.Check on property f with its generator seeded from
// Seed, and reports a failure together with that seed.  maxCount is
// the number of cases to draw; 0 keeps quick's default (100).
func Check(t testing.TB, f any, maxCount int) {
	t.Helper()
	seed := Seed(t)
	cfg := &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

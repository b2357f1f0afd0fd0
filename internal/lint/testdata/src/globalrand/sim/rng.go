// Package sim is a forbidden-callee fixture for math/rand: draws from
// the process-global generator are flagged; threaded generators and
// seeded construction are not.
package sim

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func globalDraws() {
	_ = rand.Intn(10)       // want `math/rand.Intn draws from the process-global generator`
	_ = rand.Float64()      // want `math/rand.Float64 draws from the process-global generator`
	_ = rand.Int63n(100)    // want `math/rand.Int63n draws from the process-global generator`
	_ = rand.Perm(5)        // want `math/rand.Perm draws from the process-global generator`
	rand.Shuffle(3, swap)   // want `math/rand.Shuffle draws from the process-global generator`
	rand.Seed(42)           // want `math/rand.Seed draws from the process-global generator`
	_, _ = rand.Read(nil)   // want `math/rand.Read draws from the process-global generator`
	_ = rand.NormFloat64()  // want `math/rand.NormFloat64 draws from the process-global generator`
	_ = rand.ExpFloat64()   // want `math/rand.ExpFloat64 draws from the process-global generator`
	_ = randv2.IntN(10)     // want `math/rand/v2.IntN draws from the process-global generator`
	_ = randv2.Float64()    // want `math/rand/v2.Float64 draws from the process-global generator`
	_ = randv2.N(time.Hour) // want `math/rand/v2.N draws from the process-global generator`
}

func swap(i, j int) {}

// A source seeded from the wall clock is caught by the clock read.
func timeSeeded() *rand.Rand {
	src := rand.NewSource(time.Now().UnixNano()) // want `time.Now reads or waits on the wall clock`
	return rand.New(src)
}

// Threaded generators are the sanctioned pattern: every draw comes from
// a *rand.Rand derived from the experiment seed.
func threaded(rng *rand.Rand) float64 {
	rng.Shuffle(3, swap)
	return rng.Float64() + float64(rng.Intn(10))
}

func fixedSeed(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func threadedV2(seed uint64) int {
	return randv2.New(randv2.NewPCG(seed, 1)).IntN(10)
}

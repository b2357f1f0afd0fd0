// Package allowed is a true-negative fixture for math/rand: it is loaded
// under the paths of packages outside the simulated world (the commands,
// the examples, internal/livenet), which may use the global generator.
package allowed

import "math/rand"

func Roll() int { return rand.Intn(6) }

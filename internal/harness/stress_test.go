package harness

import (
	"math/rand"
	"testing"
	"time"

	"press/internal/faults"
)

// TestRandomFaultSequences is the crash-consistency property test: the
// FME configuration is bombarded with random (possibly overlapping)
// faults and repairs; after the dust settles and the operator has had a
// chance to act, the cluster must always be whole again, for any seed.
func TestRandomFaultSequences(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sequences")
	}
	t.Parallel()
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			t.Parallel()
			o := FastOptions(seed)
			o.Rate = 100 // fixed: saturation probing isn't the point here
			c := NewEngine(0).Build(VFME, o)
			rng := rand.New(rand.NewSource(seed))
			c.Gen.Start()
			c.Sim.RunFor(o.Warmup)

			types := []faults.Type{
				faults.LinkDown, faults.SwitchDown, faults.SCSITimeout,
				faults.NodeCrash, faults.NodeFreeze, faults.AppCrash,
				faults.AppHang, faults.FrontendFailure,
			}
			var active []*faults.Active
			for round := 0; round < 12; round++ {
				ft := types[rng.Intn(len(types))]
				comp := 0
				switch ft {
				case faults.SCSITimeout:
					comp = rng.Intn(2 * len(c.Machines))
				case faults.SwitchDown, faults.FrontendFailure:
					comp = 0
				default:
					comp = rng.Intn(len(c.Machines))
				}
				if c.Injector.Eligible(ft, comp) {
					if a, err := c.Injector.Inject(ft, comp); err == nil {
						active = append(active, a)
					}
				}
				c.Sim.RunFor(time.Duration(5+rng.Intn(30)) * time.Second)
				// Randomly repair a backlog entry.
				if len(active) > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(len(active))
					_ = active[i].Repair()
					active = append(active[:i], active[i+1:]...)
				}
			}
			for _, a := range active {
				_ = a.Repair()
			}
			// Give detection, rejoin, and (if needed) the operator a chance.
			c.Sim.RunFor(2 * time.Minute)
			if !c.Reintegrated() {
				c.OperatorReset()
				c.Sim.RunFor(2 * time.Minute)
			}
			if !c.Reintegrated() {
				for i := range c.Machines {
					if srv := c.Server(i); srv != nil {
						t.Logf("node %d view=%v alive=%v", i, srv.View(), c.Machines[i].Proc("press").Alive())
					}
				}
				t.Fatalf("seed %d: cluster never became whole again\n%s", seed, c.Log.Dump())
			}
			// And it must still serve.
			before := c.Rec.Succeeded
			c.Sim.RunFor(30 * time.Second)
			if c.Rec.Succeeded == before {
				t.Fatalf("seed %d: whole but not serving", seed)
			}
		})
	}
}

package harness

import (
	"sync"
	"testing"
	"time"
)

// The stochastic whole-load validations are the most expensive tests in
// the repository: each simulates hours of cluster time under Poisson
// fault arrivals. Their horizons are explicit budgets — long enough for
// several faults (and some overlaps) to occur at the chosen acceleration,
// short enough that the suite fits comfortably inside the default go test
// timeout even single-threaded. They skip under -short; the episode tests
// cover the fault path end-to-end there.

// TestStochasticValidation runs the whole-load validation: faults must
// actually occur, the operator must not be needed for the FME version,
// and the model must land within a few availability points of the
// measurement.
func TestStochasticValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("long stochastic run")
	}
	t.Parallel()
	// The acceleration must keep the expected fault fraction well below
	// one or the model (rightly) refuses; SCSI repairs take an hour, so
	// ~150x is the ceiling for the FME version. Two simulated hours at
	// 150x yields a handful of faults, including overlapping ones.
	res, err := StochasticRun(sharedEngine(VFME), VFME, FastOptions(1), FastSchedule(), StochasticConfig{
		Horizon: 2 * time.Hour,
		Accel:   150,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if res.Faults < 4 {
		t.Fatalf("only %d faults over the horizon; acceleration ineffective", res.Faults)
	}
	if res.Measured <= 0 || res.Measured > 1 {
		t.Fatalf("measured availability %v out of range", res.Measured)
	}
	// The model assumes non-overlapping faults; at this acceleration some
	// overlap, so allow a modest error band.
	if diff := res.Predicted - res.Measured; diff > 0.08 || diff < -0.08 {
		t.Fatalf("model error %.4f availability points too large (measured %.5f predicted %.5f)",
			diff, res.Measured, res.Predicted)
	}
}

// TestStochasticCOOPWorseThanFME runs both versions through the same
// accelerated load (concurrently — each on its own simulator): the
// ordering must match the campaigns'.
func TestStochasticCOOPWorseThanFME(t *testing.T) {
	if testing.Short() {
		t.Skip("long stochastic run")
	}
	t.Parallel()
	// COOP's modeled episodes include a 30-minute operator wait, so its
	// acceleration ceiling is lower still.
	cfg := StochasticConfig{Horizon: 150 * time.Minute, Accel: 40}
	var wg sync.WaitGroup
	var coop, fme StochasticResult
	var coopErr, fmeErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		coop, coopErr = StochasticRun(sharedEngine(VCOOP), VCOOP, FastOptions(1), FastSchedule(), cfg)
	}()
	go func() {
		defer wg.Done()
		fme, fmeErr = StochasticRun(sharedEngine(VFME), VFME, FastOptions(1), FastSchedule(), cfg)
	}()
	wg.Wait()
	if coopErr != nil {
		t.Fatal(coopErr)
	}
	if fmeErr != nil {
		t.Fatal(fmeErr)
	}
	t.Logf("measured under stochastic load: COOP %.5f (%d faults), FME %.5f (%d faults)",
		coop.Measured, coop.Faults, fme.Measured, fme.Faults)
	if coop.Faults == 0 || fme.Faults == 0 {
		t.Fatalf("no faults occurred (COOP %d, FME %d); horizon too short", coop.Faults, fme.Faults)
	}
	if fme.Measured <= coop.Measured {
		t.Fatalf("FME (%.5f) not better than COOP (%.5f) under stochastic load", fme.Measured, coop.Measured)
	}
}

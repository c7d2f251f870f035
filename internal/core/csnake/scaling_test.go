// Randomized scale-out identity sweep: the sharded accumulation promises
// byte-identical reports for ANY combination of wave size and worker
// count -- not just the handful of configurations the targeted tests
// pin. This sweep draws configurations from a seeded RNG and compares
// each against its own serial baseline, so a merge-order or snapshot bug
// that only manifests at an odd wave/parallelism pairing still has a
// test that can reach it.

package csnake

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// sweepConfig is one randomly drawn campaign shape.
type sweepConfig struct {
	seed     int64
	wave     int
	parallel int
	anytime  bool
	adaptive bool
}

func (c sweepConfig) String() string {
	mode := "batch"
	if c.anytime {
		mode = fmt.Sprintf("anytime/wave=%d", c.wave)
		if c.adaptive {
			mode += "/adaptive"
		}
	}
	return fmt.Sprintf("seed=%d p=%d %s", c.seed, c.parallel, mode)
}

func (c sweepConfig) opts(parallel int) []Option {
	opts := []Option{
		WithSeed(c.seed),
		WithReps(2),
		WithDelayMagnitudes(500 * time.Millisecond), // one magnitude keeps the sweep fast
		WithParallelism(parallel),
	}
	if c.anytime {
		opts = append(opts, WithAnytime(), WithWaveSize(c.wave))
		if c.adaptive {
			opts = append(opts, WithProtocol(ProtocolAdaptive))
		}
	}
	return opts
}

func TestRandomizedParallelSweepByteIdentical(t *testing.T) {
	// Fixed sweep seed: the drawn configurations are stable across runs,
	// so a failure here reproduces.
	rng := rand.New(rand.NewSource(1031))
	n := 8
	if testing.Short() {
		n = 4
	}
	parallelisms := []int{2, 4, 8}
	for i := 0; i < n; i++ {
		cfg := sweepConfig{
			seed:     int64(rng.Intn(1000)),
			wave:     1 + rng.Intn(6),
			parallel: parallelisms[rng.Intn(len(parallelisms))],
			anytime:  rng.Intn(2) == 0,
			adaptive: rng.Intn(3) == 0,
		}
		t.Run(cfg.String(), func(t *testing.T) {
			serial, err := NewCampaign(tinySystem{}, cfg.opts(1)...).Run()
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := NewCampaign(tinySystem{}, cfg.opts(cfg.parallel)...).Run()
			if err != nil {
				t.Fatal(err)
			}
			if serial.Sims != parallel.Sims {
				t.Fatalf("sim counts diverge: %d vs %d", serial.Sims, parallel.Sims)
			}
			if !reflect.DeepEqual(serial.Edges, parallel.Edges) {
				t.Fatalf("edge sets diverge:\nserial:   %v\nparallel: %v", serial.Edges, parallel.Edges)
			}
			if !reflect.DeepEqual(serial.Runs, parallel.Runs) {
				t.Fatal("run schedules diverge")
			}
			if fmt.Sprintf("%+v", serial.Cycles) != fmt.Sprintf("%+v", parallel.Cycles) {
				t.Fatal("cycle sets diverge")
			}
			if fmt.Sprintf("%+v", serial.CycleClusters) != fmt.Sprintf("%+v", parallel.CycleClusters) {
				t.Fatal("cycle clusters diverge")
			}
			if len(serial.Rounds) != len(parallel.Rounds) {
				t.Fatalf("round counts diverge: %d vs %d", len(serial.Rounds), len(parallel.Rounds))
			}
			for r := range serial.Rounds {
				if fmt.Sprintf("%+v", serial.Rounds[r]) != fmt.Sprintf("%+v", parallel.Rounds[r]) {
					t.Fatalf("round %d diverges:\nserial:   %+v\nparallel: %+v",
						r, serial.Rounds[r], parallel.Rounds[r])
				}
			}
		})
	}
}

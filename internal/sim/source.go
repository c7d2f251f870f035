// The engine RNG source: a two-word splitmix-style generator. Every
// seeded schedule, and so every campaign report, is a function of this
// stream; changing the generator moves all of them.

package sim

// Source is a pseudo-random source implementing
// math/rand.Source64. It is splitmix-style: a Weyl sequence (state +=
// gamma) finalised by a 64-bit avalanche mix. The whole generator state
// is the two words {state, gamma}.
//
// The gamma increment is derived from the seed (forced odd so the Weyl
// sequence has full period 2^64), which decorrelates nearby seeds: the
// harness allocates seeds densely (base+rep) and must not get
// correlated schedules out of them.
type Source struct {
	state uint64
	gamma uint64
}

// golden is the 64-bit golden-ratio constant used to derive per-seed
// gamma increments.
const golden = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 finaliser: a bijective avalanche mix.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the canonical state for seed, satisfying
// math/rand.Source.
func (s *Source) Seed(seed int64) {
	s.state = mix64(uint64(seed))
	s.gamma = mix64(uint64(seed)^golden) | 1
}

// Uint64 returns the next value in the stream, satisfying
// math/rand.Source64.
func (s *Source) Uint64() uint64 {
	s.state += s.gamma
	return mix64(s.state)
}

// Int63 returns a non-negative 63-bit value, satisfying math/rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

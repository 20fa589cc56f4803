/**
 * @file
 * The scenario generator: seeded, deterministic sampling of the
 * config-bit x invariant-family-restriction x device-count x
 * inline-litmus space, plus mutation-based resampling around
 * interesting corpus entries, so the differential oracle sees cases
 * no hand-written scenario covers.
 *
 * Determinism is load-bearing: the same seed and budget must emit the
 * same case sequence on every platform (the fixed-seed CI smoke job
 * and the manifest golden test depend on it), so the generator uses
 * its own splitmix64 stream rather than std:: distributions, whose
 * outputs are implementation-defined.
 */

#ifndef CXL_FUZZ_GEN_HH
#define CXL_FUZZ_GEN_HH

#include <cstdint>
#include <vector>

#include "fuzz/case.hh"

namespace cxl::fuzz
{

/** Deterministic PRNG (splitmix64): identical streams everywhere. */
struct Rng {
    std::uint64_t state;

    explicit Rng(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, bound); bound 0 yields 0. */
    std::uint32_t
    below(std::uint32_t bound)
    {
        return bound == 0
                   ? 0
                   : static_cast<std::uint32_t>(next() % bound);
    }

    /** True with probability @p percent / 100. */
    bool chance(std::uint32_t percent) { return below(100) < percent; }
};

/** Generator knobs. */
struct GenOptions {
    std::uint64_t seed = 1;

    /** Device-count range sampled for fresh cases. */
    int minDevices = 2;
    int maxDevices = 2;

    /** Longest per-device inline program. */
    std::uint32_t maxProgramLen = 4;

    /** State cap attached to free-run cases (they are the only
     * unbounded ones; program cases always run uncapped). */
    std::uint64_t freeRunCap = 20000;

    /** Probability (percent) that next() mutates a seed case instead
     * of sampling a fresh one, once seeds exist. */
    std::uint32_t mutationPercent = 40;
};

/**
 * The seeded scenario generator.  next() yields an endless
 * deterministic stream: fresh random cases interleaved with
 * mutations of the seed pool (corpus entries and promoted cases).
 */
class ScenarioGen
{
  public:
    explicit ScenarioGen(GenOptions options = {});

    /** Add a mutation seed (typically a loaded corpus case). */
    void addSeed(const FuzzCase &seedCase);

    /** The next generated case. */
    FuzzCase next();

    /**
     * One mutation step over @p base: flip a config bit, edit an
     * instruction, resize the device count, switch the initial
     * state, or adjust the family restriction — then renormalise.
     * Public so tests can drive it directly.
     */
    FuzzCase mutate(FuzzCase base);

    /**
     * Clamp a case back into the generator's invariants: owner below
     * the device count, exactly one program per device (none in free
     * run), free-run cases capped, families sorted and deduplicated.
     */
    void normalise(FuzzCase &c) const;

    const GenOptions &options() const { return options_; }

  private:
    FuzzCase fresh();

    GenOptions options_;
    Rng rng_;
    std::vector<FuzzCase> seeds_;
    std::vector<std::string> familyVocabulary_;
};

} // namespace cxl::fuzz

#endif // CXL_FUZZ_GEN_HH

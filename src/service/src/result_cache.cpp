#include "gmd/service/result_cache.hpp"

#include "gmd/common/hash.hpp"

namespace gmd::service {

std::uint64_t simulate_cache_key(std::uint64_t trace_checksum,
                                 const dse::DesignPoint& point,
                                 const dse::SimulateOptions& options) {
  Fnv1a h;
  h.mix(trace_checksum);
  // Canonical DesignPoint bytes: every field, in declaration order,
  // through fixed-width integers / IEEE bit patterns (never text).
  h.mix(static_cast<std::uint64_t>(point.kind));
  h.mix(point.cpu_freq_mhz);
  h.mix(point.ctrl_freq_mhz);
  h.mix(point.channels);
  h.mix(point.trcd);
  h.mix_double(point.dram_fraction);
  // Sampling geometry participates only when sampling is on, exactly
  // like the sweep journal identity: exhaustive results are one entry
  // regardless of dormant sampling defaults.
  if (options.sample_fraction < 1.0) {
    h.mix_double(options.sample_fraction);
    h.mix(options.sample_seed);
    h.mix(options.sample_warmup_chunks);
  }
  return h.state;
}

}  // namespace gmd::service

// TeraGen's two record kernels, reachable by the tests that compare
// them and the benchmarks that name them. Not part of TeraGen's
// interface: every other caller goes through TeraGen::record_into and
// TeraGen::keys_into, which run the kernel this host selected.
#pragma once

#include <cstdint>

#include "keyvalue/teragen.h"

namespace cts::teragen_internal {

// The first CPU feature the wide kernel needs and this host lacks
// (AVX-512 F, DQ, BW or VL; "x86-64" on any other architecture), or
// nullptr when the wide kernel can run. Asks the CPU on every call.
const char* FirstMissingWideFeature();

// FirstMissingWideFeature(), asked once per process: the wide kernel
// runs exactly when this is nullptr. Inline, so the check record_into
// makes per record is a load, not a call.
inline const char* WideKernelMissingFeature() {
  static const char* const missing = FirstMissingWideFeature();
  return missing;
}

// The reference kernel, and the only one on hosts without AVX-512:
// one hash lane at a time.
void RecordIntoScalar(const TeraGen& gen, std::uint64_t index,
                      std::uint8_t* out);

// The same 100 bytes from two 8-lane hash vectors. Requires
// WideKernelMissingFeature() == nullptr.
void RecordIntoWide(const TeraGen& gen, std::uint64_t index,
                    std::uint8_t* out);

}  // namespace cts::teragen_internal

//===--- Obs.h - Observability root: provenance flag and clock -*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The root of the `lockin_obs` observability layer (see DESIGN.md
/// "Observability"): the shared monotonic clock every trace event and
/// wait/hold measurement is stamped with. The instrumentation sites in
/// the runtime, interpreter, pass manager, simulator and daemon are part
/// of every build; a dormant profiler or tracer costs its site one
/// relaxed load and a branch.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_OBS_OBS_H
#define LOCKIN_OBS_OBS_H

#include <chrono>
#include <cstdint>

namespace lockin {
namespace obs {

/// Always true: instrumentation is part of every build. Kept as a
/// constant because benchmark provenance stamps record it.
inline constexpr bool kEnabled = true;

/// Monotonic nanoseconds since an arbitrary epoch; the timestamp base of
/// every trace event and wait/hold measurement.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace obs
} // namespace lockin

#endif // LOCKIN_OBS_OBS_H

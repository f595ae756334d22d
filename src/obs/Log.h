//===--- Log.h - Leveled structured JSON logging ----------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured logging for the analysis service: one JSON object per line,
/// written atomically (one mutex-guarded fwrite per event) so concurrent
/// worker/connection threads never interleave within a line. Every line
/// carries a wall-clock timestamp in microseconds, a level, and an event
/// name; callers append typed fields through the LogEvent builder:
///
///   obs::log().event(obs::LogLevel::Warn, "service.overloaded")
///       .num("req", Id).str("peer", Peer).num("queue_depth", Depth);
///
/// The event is emitted when the builder goes out of scope. A builder
/// whose level is below the logger's threshold is a null object: the
/// field appenders are no-ops and nothing is allocated or written. The
/// default sink is stderr; tests redirect it with setSink(tmpfile()).
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_OBS_LOG_H
#define LOCKIN_OBS_LOG_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

namespace lockin {
namespace obs {

enum class LogLevel : uint8_t { Debug = 0, Info, Warn, Error, Off };

const char *logLevelName(LogLevel L);
/// Parses "debug"/"info"/"warn"/"error"/"off"; returns false (and leaves
/// \p Out untouched) on anything else.
bool parseLogLevel(std::string_view Text, LogLevel &Out);

/// Appends \p S to \p Out escaped for a JSON string body: `"` and `\`
/// get a backslash, other control characters become `\u00XX`. The one
/// escaper of the log, the trace and the flight recorder.
void jsonEscape(std::string &Out, std::string_view S);

class Logger;

/// One structured log line under construction. Move-only; the destructor
/// emits the finished line through the owning Logger. A suppressed event
/// (level below threshold) has a null Logger and every appender returns
/// immediately.
class LogEvent {
public:
  LogEvent(const LogEvent &) = delete;
  LogEvent &operator=(const LogEvent &) = delete;
  LogEvent(LogEvent &&Other) noexcept : L(Other.L), Buf(std::move(Other.Buf)) {
    Other.L = nullptr;
  }
  ~LogEvent();

  LogEvent &str(std::string_view Key, std::string_view Value);
  LogEvent &num(std::string_view Key, uint64_t Value);
  LogEvent &snum(std::string_view Key, int64_t Value);
  LogEvent &real(std::string_view Key, double Value);
  LogEvent &flag(std::string_view Key, bool Value);

private:
  friend class Logger;
  LogEvent() = default; // suppressed
  LogEvent(Logger *Owner, LogLevel Level, std::string_view Event);
  void key(std::string_view Key);

  Logger *L = nullptr;
  std::string Buf;
};

/// A leveled line-oriented JSON logger. Level reads are one relaxed atomic
/// load, so `log().event(Debug, ...)` on a hot path costs a branch when
/// debug logging is off.
class Logger {
public:
  Logger() = default;
  Logger(const Logger &) = delete;
  Logger &operator=(const Logger &) = delete;

  LogLevel level() const {
    return static_cast<LogLevel>(Level.load(std::memory_order_relaxed));
  }
  void setLevel(LogLevel L) {
    Level.store(static_cast<uint8_t>(L), std::memory_order_relaxed);
  }
  bool enabled(LogLevel L) const {
    return L != LogLevel::Off && L >= level();
  }

  /// Redirects output; null restores the default (stderr). The logger
  /// never closes the sink.
  void setSink(std::FILE *To);

  /// Starts a line: {"ts_us":...,"level":"...","event":"..."}. Returns a
  /// suppressed builder when \p L is below the threshold.
  LogEvent event(LogLevel L, std::string_view Event);

  /// Lines actually written (suppressed events excluded); tests.
  uint64_t lines() const { return Lines.load(std::memory_order_relaxed); }

private:
  friend class LogEvent;
  void write(std::string_view Line);

  std::atomic<uint8_t> Level{static_cast<uint8_t>(LogLevel::Info)};
  std::atomic<uint64_t> Lines{0};
  std::mutex Mu; // serializes sink writes and sink swaps
  std::FILE *Sink = nullptr; // null = stderr
};

/// The process-wide logger (what the service and adaptive engine write to).
Logger &log();

} // namespace obs
} // namespace lockin

#endif // LOCKIN_OBS_LOG_H

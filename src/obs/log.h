// Minimal leveled logger for the tools and simulators.
//
// Severity-gated stderr lines with a monotonic timestamp:
//   [   0.123s][info ] admission run: online_cp, 300 requests
// Not for hot paths - guard expensive message construction with
// log_enabled(). Default level is kWarn so library users see nothing
// unless something is wrong.
#pragma once

#include <optional>
#include <string_view>

namespace nfvm::obs {

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// Name as used by `nfvm_sim --log-level` ("error", "warn", "info", "debug").
std::string_view to_string(LogLevel level);
/// Inverse of to_string; nullopt for unknown names.
std::optional<LogLevel> parse_log_level(std::string_view name);

void set_log_level(LogLevel level);
bool log_enabled(LogLevel level);

void log_message(LogLevel level, std::string_view message);
inline void log_info(std::string_view m) { log_message(LogLevel::kInfo, m); }
inline void log_debug(std::string_view m) { log_message(LogLevel::kDebug, m); }

}  // namespace nfvm::obs

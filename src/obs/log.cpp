#include "obs/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace nfvm::obs {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
std::mutex g_write_mu;

double seconds_since_start() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "error";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kInfo: return "info";
    case LogLevel::kDebug: return "debug";
  }
  return "?";
}

std::optional<LogLevel> parse_log_level(std::string_view name) {
  if (name == "error") return LogLevel::kError;
  if (name == "warn" || name == "warning") return LogLevel::kWarn;
  if (name == "info") return LogLevel::kInfo;
  if (name == "debug") return LogLevel::kDebug;
  return std::nullopt;
}

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) <= g_level.load(std::memory_order_relaxed);
}

void log_message(LogLevel level, std::string_view message) {
  if (!log_enabled(level)) return;
  const std::lock_guard<std::mutex> lock(g_write_mu);
  std::fprintf(stderr, "[%8.3fs][%-5s] %.*s\n", seconds_since_start(),
               std::string(to_string(level)).c_str(),
               static_cast<int>(message.size()), message.data());
}

}  // namespace nfvm::obs

#include "util/env.h"

#include <cstdlib>

namespace nfvm::util {

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return value;
}

}  // namespace nfvm::util

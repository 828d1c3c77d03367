#include "klotski/util/flags.h"

#include <charconv>
#include <cstdlib>
#include <stdexcept>

#include "klotski/util/string_util.h"

namespace klotski::util {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      flags.positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    std::string name;
    std::string value;
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      // `--name value` form only when the next token is not itself a flag.
      if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    flags.names_.push_back(name);
    flags.values_[name] = value;
  }
  return flags;
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// [first, last) for the numeric token: a leading '+' is tolerated
/// (std::from_chars rejects it) but nothing else is trimmed.
std::pair<const char*, const char*> numeric_range(const std::string& s) {
  const char* first = s.data();
  const char* last = s.data() + s.size();
  if (first != last && *first == '+') ++first;
  return {first, last};
}

}  // namespace

long long Flags::get_int(const std::string& name, long long fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto [first, last] = numeric_range(it->second);
  long long v = 0;
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || ptr != last || first == last) {
    throw std::invalid_argument("--" + name + ": invalid integer '" +
                                it->second + "'");
  }
  return v;
}

int Flags::get_int32(const std::string& name, int fallback) const {
  return checked_int(get_int(name, fallback), "--" + name);
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto [first, last] = numeric_range(it->second);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || ptr != last || first == last) {
    throw std::invalid_argument("--" + name + ": invalid number '" +
                                it->second + "'");
  }
  return v;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string lower = to_lower(it->second);
  return lower == "1" || lower == "true" || lower == "yes" || lower == "on";
}

bool env_flag(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const std::string lower = to_lower(raw);
  return lower == "1" || lower == "true" || lower == "yes" || lower == "on";
}

}  // namespace klotski::util

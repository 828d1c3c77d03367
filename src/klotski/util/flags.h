// Minimal command-line flag parser for examples and bench harnesses.
//
// Supports `--name=value`, `--name value`, and boolean `--name`.
// Unrecognized flags are collected so harnesses can reject typos.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace klotski::util {

class Flags {
 public:
  /// Parses argv; positional (non --) arguments are kept in order.
  static Flags parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  /// Throws std::invalid_argument (naming the flag) when the value is not
  /// a fully-consumed integer, e.g. `--threads=abc` or `--threads=4x`.
  long long get_int(const std::string& name, long long fallback) const;
  /// get_int for an int-typed option: also throws when the value does not
  /// fit in an int, instead of letting a cast truncate it.
  int get_int32(const std::string& name, int fallback) const;
  /// Throws std::invalid_argument (naming the flag) when the value is not
  /// a fully-consumed number. Locale-independent (std::from_chars).
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::unordered_map<std::string, std::string> values_;
  std::vector<std::string> names_;       // in parse order
  std::vector<std::string> positional_;
};

/// Reads an environment variable as bool ("1", "true", "yes" => true).
bool env_flag(const char* name, bool fallback = false);

}  // namespace klotski::util

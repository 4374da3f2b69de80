// Tiny command-line option parser for the bench and example binaries.
//
// Recognised syntax: `--key=value`, `--key value`, and bare `--flag`.
// Anything not starting with `--` is a positional argument.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace coopnet::util {

/// Parsed command line.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if `--name` appeared (with or without a value).
  bool has(const std::string& name) const;

  /// Value of `--name`, if one was supplied.
  std::optional<std::string> get(const std::string& name) const;

  /// Typed getters with defaults; throw std::invalid_argument on a
  /// malformed value.
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  long get_int(const std::string& name, long fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// get_double with range validation: the parsed value (or the fallback,
  /// which is NOT exempt) must lie in [min_value, max_value]. Rates and
  /// probabilities go through this so a negative --arrival-rate or a
  /// probability of 1.5 fails fast with the legal range in the message
  /// instead of silently producing a nonsense scenario.
  double get_double_in(const std::string& name, double fallback,
                       double min_value, double max_value) const;

  /// Value of `--name` parsed as a population/size count in
  /// [1, max_value]. These counts size allocations, so a zero, negative,
  /// non-numeric, or overflowing value must fail fast with an actionable
  /// message instead of reaching an allocator. Requires an all-digit
  /// token (no sign, no numeric prefix like "100junk").
  std::size_t get_count(const std::string& name, std::size_t fallback,
                        std::size_t max_value) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;  // flag -> value ("" if none)
  std::vector<std::string> positional_;
};

/// Throws std::invalid_argument when the removed `--threads` flag is
/// present. Cli ignores unknown flags, so without this an old
/// `--threads K` command line would run without a word; the message
/// points to `--jobs`, the concurrency that remains.
void reject_threads_flag(const Cli& cli);

}  // namespace coopnet::util

#include "util/cli.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/parse.h"

namespace coopnet::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` form: consume the next token unless it is another flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";
    }
  }
}

void reject_threads_flag(const Cli& cli) {
  if (cli.has("threads")) {
    throw std::invalid_argument(
        "--threads was removed: intra-run threading no longer exists and "
        "every run executes sequentially; use --jobs J to run cells or "
        "replications concurrently");
  }
}

bool Cli::has(const std::string& name) const {
  return options_.count(name) != 0;
}

std::optional<std::string> Cli::get(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return std::nullopt;
  return it->second;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  return get(name).value_or(fallback);
}

long Cli::get_int(const std::string& name, long fallback) const {
  auto v = get(name);
  if (!v) return fallback;
  errno = 0;
  char* end = nullptr;
  const long out = std::strtol(v->c_str(), &end, 10);
  if (errno == ERANGE || end == v->c_str() || *end != '\0') {
    throw std::invalid_argument("Cli: bad integer for --" + name);
  }
  return out;
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto v = get(name);
  if (!v) return fallback;
  // Strict finite grammar: "inf", "nan", hex-floats ("0x1p4") and
  // overflowing values are configuration mistakes, not numbers.
  double out = 0.0;
  if (!parse_double(*v, &out)) {
    throw std::invalid_argument("Cli: bad number for --" + name);
  }
  return out;
}

double Cli::get_double_in(const std::string& name, double fallback,
                          double min_value, double max_value) const {
  const double out = get_double(name, fallback);
  if (!(out >= min_value && out <= max_value)) {
    char range[96];
    std::snprintf(range, sizeof(range), " (expected a number in [%g, %g])",
                  min_value, max_value);
    throw std::invalid_argument("Cli: --" + name + "=" +
                                get_string(name, "<default>") +
                                " is out of range" + range);
  }
  return out;
}

std::size_t Cli::get_count(const std::string& name, std::size_t fallback,
                           std::size_t max_value) const {
  auto v = get(name);
  if (!v) return fallback;
  // strtoul alone accepts "-1" (wraps), "1e6" (prefix), and saturates on
  // overflow without reporting it; parse_u64 requires an all-digit token
  // and checks errno, like the fleet endpoint parser does for ports.
  const std::string range =
      " (expected an integer in [1, " + std::to_string(max_value) + "])";
  std::uint64_t out = 0;
  if (!parse_u64(*v, &out)) {
    throw std::invalid_argument("Cli: --" + name + "=" + *v +
                                " is not a count" + range);
  }
  if (out == 0 || out > max_value) {
    throw std::invalid_argument("Cli: --" + name + "=" + *v +
                                " is out of range" + range);
  }
  return static_cast<std::size_t>(out);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("Cli: bad boolean for --" + name);
}

}  // namespace coopnet::util

#include "common/flags.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace graybox {

Flags::Flags(int argc, const char* const* argv,
             std::map<std::string, std::string> spec)
    : program_(argc > 0 ? argv[0] : "?"), spec_(std::move(spec)) {
  // google-benchmark binaries share argv with us; ignore its flags.
  auto is_benchmark_flag = [](const std::string& s) {
    return s.rfind("--benchmark", 0) == 0;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (is_benchmark_flag(arg)) continue;
    if (arg.rfind("--", 0) != 0)
      usage_and_exit("unknown argument '" + arg + "'");
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      value = "true";
    }
    if (!spec_.count(name))
      usage_and_exit("unknown argument '--" + name + "'");
    values_[name] = value;
  }
}

bool Flags::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

template <typename T>
T Flags::get_number(const std::string& name, T fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& s = it->second;
  T value{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (s.empty() || ec != std::errc() || end != s.data() + s.size())
    usage_and_exit("invalid value '" + s + "' for --" + name);
  return value;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  return get_number(name, fallback);
}

double Flags::get_double(const std::string& name, double fallback) const {
  return get_number(name, fallback);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::map<std::string, std::string> with_engine_flags(
    std::map<std::string, std::string> spec) {
  spec.emplace("jobs", "worker threads for trial fan-out (default 0 = all cores)");
  spec.emplace("trials", "trials (consecutive seeds) per grid cell");
  spec.emplace("json",
               "bench artifact path (default BENCH_<name>.json; '-' disables)");
  return spec;
}

void Flags::usage_and_exit(const std::string& problem) const {
  std::fprintf(stderr, "%s: %s\nknown flags:\n", program_.c_str(),
               problem.c_str());
  for (const auto& [name, help] : spec_)
    std::fprintf(stderr, "  --%-24s %s\n", name.c_str(), help.c_str());
  std::exit(2);
}

}  // namespace graybox

#include "util/cli.hpp"

#include <cstdlib>

namespace alert::util {

std::optional<CliArgs> CliArgs::parse(int argc, const char* const* argv,
                                      std::string* error) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      if (error != nullptr) *error = "unexpected argument: " + token;
      return std::nullopt;
    }
    token.erase(0, 2);
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      args.values_[token.substr(0, eq)] = {token.substr(eq + 1), false};
      continue;
    }
    // `--key value` when the next token is not itself a flag; otherwise a
    // boolean `--flag`.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.values_[token] = {argv[i + 1], false};
      ++i;
    } else {
      args.values_[token] = {"true", false};
    }
  }
  return args;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  return it->second.first;
}

double CliArgs::get(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  return std::strtod(it->second.first.c_str(), nullptr);
}

std::int64_t CliArgs::get(const std::string& key,
                          std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  return std::strtoll(it->second.first.c_str(), nullptr, 10);
}

bool CliArgs::get(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  const std::string& v = it->second.first;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

CommonFlags CommonFlags::from(const CliArgs& args) {
  CommonFlags flags;
  flags.trace_out = args.get("trace-out", std::string());
  flags.log_level = args.get("log-level", std::string("none"));
  flags.threads = args.get("threads", static_cast<std::int64_t>(0));
  return flags;
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (!value.second) out.push_back(key);
  }
  return out;
}

}  // namespace alert::util

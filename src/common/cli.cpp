#include "common/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/check.hpp"
#include "common/strings.hpp"

namespace pimwfa {

Cli::Cli(int argc, const char* const* argv) {
  PIMWFA_ARG_CHECK(argc >= 1, "argc must include the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (starts_with(arg, "--")) {
      std::string body = arg.substr(2);
      const usize eq = body.find('=');
      if (eq != std::string::npos) {
        values_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        values_[body] = argv[++i];
      } else {
        values_[body] = "true";  // bare boolean flag
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

void Cli::register_doc(const std::string& name, const std::string& fallback,
                       const std::string& help) {
  for (const auto& doc : docs_) {
    if (doc.name == name) return;
  }
  docs_.push_back({name, fallback, help});
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback,
                            const std::string& help) {
  register_doc(name, fallback, help);
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

i64 Cli::get_int(const std::string& name, i64 fallback,
                 const std::string& help) {
  register_doc(name, std::to_string(fallback), help);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  PIMWFA_ARG_CHECK(end != nullptr && *end == '\0',
                   "flag --" << name << " expects an integer, got '"
                             << it->second << "'");
  return static_cast<i64>(value);
}

double Cli::get_double(const std::string& name, double fallback,
                       const std::string& help) {
  register_doc(name, std::to_string(fallback), help);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  PIMWFA_ARG_CHECK(end != nullptr && *end == '\0',
                   "flag --" << name << " expects a number, got '"
                             << it->second << "'");
  return value;
}

bool Cli::get_bool(const std::string& name, bool fallback,
                   const std::string& help) {
  register_doc(name, fallback ? "true" : "false", help);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  if (iequals(value, "true") || value == "1" || iequals(value, "yes")) {
    return true;
  }
  if (iequals(value, "false") || value == "0" || iequals(value, "no")) {
    return false;
  }
  throw InvalidArgument("flag --" + name + " expects a boolean, got '" +
                        value + "'");
}

void Cli::reject_unknown_flags() const {
  std::string unknown;
  usize count = 0;
  for (const auto& entry : values_) {
    const auto same_name = [&](const FlagDoc& doc) {
      return doc.name == entry.first;
    };
    if (std::any_of(docs_.begin(), docs_.end(), same_name)) continue;
    unknown += (count++ == 0 ? "--" : ", --") + entry.first;
  }
  if (count > 0) {
    throw InvalidArgument((count == 1 ? "unknown flag " : "unknown flags ") +
                          unknown);
  }
}

std::string Cli::help() const {
  std::ostringstream oss;
  if (!description_.empty()) oss << description_ << "\n\n";
  oss << "usage: " << program_ << " [flags]\n";
  for (const auto& doc : docs_) {
    oss << "  --" << doc.name;
    if (!doc.fallback.empty()) oss << " (default: " << doc.fallback << ")";
    if (!doc.help.empty()) oss << "\n      " << doc.help;
    oss << "\n";
  }
  return oss.str();
}

}  // namespace pimwfa

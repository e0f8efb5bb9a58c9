// Tiny command-line flag parser for the bench harnesses and examples.
// Supports --flag value, --flag=value and boolean --flag forms.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace pimwfa {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  // Whole-program description used by help().
  void set_description(std::string description) {
    description_ = std::move(description);
  }

  // Typed getters; `fallback` is returned when the flag is absent.
  // Each call also registers the flag for help() output.
  std::string get_string(const std::string& name, const std::string& fallback,
                         const std::string& help = "");
  i64 get_int(const std::string& name, i64 fallback,
              const std::string& help = "");
  double get_double(const std::string& name, double fallback,
                    const std::string& help = "");
  bool get_bool(const std::string& name, bool fallback,
                const std::string& help = "");

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  // Throws InvalidArgument naming every flag on the command line that no
  // getter has registered, so a misspelt flag fails instead of silently
  // running the defaults. Call after the program's last getter; a
  // program's usage-error handler prints help instead when
  // help_requested(), so --help still wins.
  void reject_unknown_flags() const;

  // Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  // True when --help/-h was passed.
  bool help_requested() const { return help_requested_; }

  // Render a usage string from all registered flags.
  std::string help() const;

  const std::string& program() const { return program_; }

 private:
  struct FlagDoc {
    std::string name;
    std::string fallback;
    std::string help;
  };

  void register_doc(const std::string& name, const std::string& fallback,
                    const std::string& help);

  std::string program_;
  std::string description_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::vector<FlagDoc> docs_;
  bool help_requested_ = false;
};

}  // namespace pimwfa

// Tiny command-line option parser for examples and bench binaries.
//
// Supports `--name value`, `--name=value` and boolean `--flag`. Callers that
// declare their accepted names via reject_unknown() turn a misspelled option
// into an error listing what is accepted, so misuse teaches rather than
// silently falling back to defaults.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fl::util {

class Options {
 public:
  /// Parse argv. Throws fl::util::ContractViolation on malformed input.
  Options(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated integer list, e.g. --sizes=256,512,1024.
  std::vector<std::int64_t> get_int_list(
      const std::string& name, std::vector<std::int64_t> fallback) const;

  /// Names seen on the command line (for help/error output).
  std::vector<std::string> names() const;

  /// Throws fl::util::ContractViolation naming the first option not in
  /// `accepted` (names without the leading "--") and listing those accepted.
  void reject_unknown(const std::vector<std::string>& accepted) const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace fl::util

#include "util/options.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "util/assert.hpp"

namespace fl::util {
namespace {

// strtoll/strtod read "" as 0 and clamp an out-of-range value to the type's
// limit (flagging ERANGE), so a whole-text parse must reject both cases
// explicitly.
std::int64_t parse_int(const std::string& name, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  FL_REQUIRE(!text.empty() && *end == '\0',
             "option --" + name + " expects an integer, got '" + text + "'");
  FL_REQUIRE(errno != ERANGE,
             "option --" + name + ": integer out of range '" + text + "'");
  return v;
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
  FL_REQUIRE(argc >= 1, "argv must contain the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    FL_REQUIRE(arg.rfind("--", 0) == 0,
               "options must start with '--' (got '" + arg + "')");
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

bool Options::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Options::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_int(name, it->second);
}

double Options::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  FL_REQUIRE(!it->second.empty() && *end == '\0',
             "option --" + name + " expects a number, got '" + it->second + "'");
  FL_REQUIRE(errno != ERANGE, "option --" + name + ": number out of range '" +
                                  it->second + "'");
  return v;
}

bool Options::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  FL_REQUIRE(false, "option --" + name + " expects a boolean, got '" + v + "'");
  return fallback;  // unreachable
}

std::vector<std::int64_t> Options::get_int_list(
    const std::string& name, std::vector<std::int64_t> fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  std::string token;
  const std::string& s = it->second;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == ',') {
      FL_REQUIRE(!token.empty(), "option --" + name + ": empty list element");
      out.push_back(parse_int(name, token));
      token.clear();
    } else {
      token += s[i];
    }
  }
  return out;
}

std::vector<std::string> Options::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

void Options::reject_unknown(const std::vector<std::string>& accepted) const {
  for (const auto& [name, value] : values_) {
    if (std::find(accepted.begin(), accepted.end(), name) != accepted.end())
      continue;
    std::string list;
    for (const std::string& a : accepted)
      list += (list.empty() ? "--" : ", --") + a;
    FL_REQUIRE(false, "unknown option --" + name + " (accepted: " + list + ")");
  }
}

}  // namespace fl::util

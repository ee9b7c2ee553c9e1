#include "gmd/common/cli.hpp"

#include <iostream>
#include <sstream>

#include "gmd/common/error.hpp"
#include "gmd/common/string_util.hpp"

namespace gmd {

CliParser::CliParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

CliParser& CliParser::add_option(const std::string& name,
                                 const std::string& default_value,
                                 const std::string& help) {
  options_[name] = Option{default_value, help, /*is_flag=*/false};
  return *this;
}

CliParser& CliParser::add_flag(const std::string& name,
                               const std::string& help) {
  options_[name] = Option{"false", help, /*is_flag=*/true};
  return *this;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const auto it = options_.find(name);
    GMD_REQUIRE_AS(ErrorCode::kConfig, it != options_.end(),
                   "unknown option --" << name);
    if (it->second.is_flag) {
      GMD_REQUIRE_AS(ErrorCode::kConfig,
                     !has_value || value == "true" || value == "false",
                     "flag --" << name << " takes no value");
      values_[name] = has_value ? value : "true";
    } else {
      if (!has_value) {
        GMD_REQUIRE_AS(ErrorCode::kConfig, i + 1 < argc,
                       "option --" << name << " needs a value");
        value = argv[++i];
      }
      values_[name] = value;
    }
  }
  return true;
}

const CliParser::Option& CliParser::find(const std::string& name) const {
  const auto it = options_.find(name);
  GMD_REQUIRE_AS(ErrorCode::kConfig, it != options_.end(),
                 "option --" << name << " not declared");
  return it->second;
}

std::string CliParser::get_string(const std::string& name) const {
  const Option& opt = find(name);
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : opt.default_value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const std::string text = get_string(name);
  const auto value = parse_int(text);
  GMD_REQUIRE_AS(ErrorCode::kConfig, value.has_value(),
                 "option --" << name << ": '" << text << "' is not an integer");
  return *value;
}

double CliParser::get_double(const std::string& name) const {
  const std::string text = get_string(name);
  const auto value = parse_double(text);
  GMD_REQUIRE_AS(ErrorCode::kConfig, value.has_value(),
                 "option --" << name << ": '" << text << "' is not a number");
  return *value;
}

std::uint64_t CliParser::count_at_most(const std::string& name,
                                       std::uint64_t max) const {
  const std::int64_t value = get_int(name);
  GMD_REQUIRE_AS(ErrorCode::kConfig,
                 value >= 0 && static_cast<std::uint64_t>(value) <= max,
                 "option --" << name << ": " << value
                             << " is not a count in [0, " << max << "]");
  return static_cast<std::uint64_t>(value);
}

bool CliParser::get_flag(const std::string& name) const {
  return get_string(name) == "true";
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << program_ << " - " << summary_ << "\n\nOptions:\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name;
    if (!opt.is_flag) os << " <value>";
    os << "\n      " << opt.help;
    if (!opt.is_flag) os << " (default: " << opt.default_value << ")";
    os << "\n";
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

}  // namespace gmd

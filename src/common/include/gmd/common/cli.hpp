#pragma once

/// \file cli.hpp
/// Tiny declarative command-line parser used by the `gmd` CLI and the
/// example binaries.  Supports `--name value`, `--name=value`, and
/// boolean flags.  Every parse or typed-read failure throws
/// Error(ErrorCode::kConfig).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace gmd {

/// Declarative option set with typed accessors and generated usage text.
class CliParser {
 public:
  /// \param program  Name shown in usage output.
  /// \param summary  One-line description shown in usage output.
  CliParser(std::string program, std::string summary);

  /// Registers an option with a default value (all values stored as text).
  CliParser& add_option(const std::string& name, const std::string& default_value,
                        const std::string& help);
  /// Registers a boolean flag (defaults to false; presence sets true).
  CliParser& add_flag(const std::string& name, const std::string& help);

  /// Parses argv.  Returns false (after printing usage) when --help was
  /// requested.  Throws Error(kConfig) on unknown options or missing values.
  bool parse(int argc, const char* const* argv);

  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  /// A count, size or id: a non-negative integer that fits T.  Throws
  /// Error(kConfig) on a negative or too-large value, so `-1` can never
  /// wrap to a huge unsigned count.
  template <typename T = std::size_t>
  T get_count(const std::string& name) const {
    return static_cast<T>(
        count_at_most(name, std::numeric_limits<T>::max()));
  }

  /// Positional arguments left over after option parsing.
  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };

  const Option& find(const std::string& name) const;
  std::uint64_t count_at_most(const std::string& name,
                              std::uint64_t max) const;

  std::string program_;
  std::string summary_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace gmd

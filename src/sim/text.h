#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

/// The one text reader. Every value the program takes in — command-line
/// flags, ADATTL_* variables, scenario and fault files, trace CSVs, policy
/// names and the tools' own flags — is cut into fields and read by the
/// functions below, so a text means the same in every layer.
///
/// The grammars read the exact text: whitespace around it makes it
/// malformed. The line readers trim lines, keys, values and fields before
/// any grammar sees them.
namespace adattl::text {

/// `s` without leading and trailing spaces, tabs and carriage returns.
std::string trim(const std::string& s);

/// The fields between the `sep`s of `s`: k separators give k + 1 fields,
/// empty ones included.
std::vector<std::string> split(const std::string& s, char sep);

/// The number grammar: all of `s` is one number as std::strtod reads it
/// (decimal or hexadecimal, optional exponent, `inf`, `nan`). nullopt when
/// `s` is empty, malformed, or out of range (strtod's ERANGE: overflow
/// past the largest double, or underflow). Infinities and NaN are returned:
/// each field decides whether it takes them.
std::optional<double> parse_number(const std::string& s);

/// Shortest decimal text that parse_number reads back to exactly `v`.
std::string format_number(double v);

/// The integer grammar: an optional sign and decimal digits, nothing else,
/// read in 64 bits. nullopt when `s` is not of that form or its value lies
/// outside [lo, hi], so `2.0`, `1e3` and `0x10` are not integers and no
/// caller narrows a value it has not range-checked.
std::optional<std::int64_t> parse_integer(
    const std::string& s, std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max());

/// The integer grammar without a minus sign, over [0, 2^64 - 1], for
/// seeds and counts.
std::optional<std::uint64_t> parse_unsigned(const std::string& s);

/// The bool grammar: `true` or `1`, `false` or `0`.
std::optional<bool> parse_bool(const std::string& s);

/// One line of a text that holds something once its comment is cut and it
/// is trimmed. A `#` at the start of a line or after a space or tab starts
/// a comment; a `#` inside a value (`faults = chaos#1.faults`) is kept.
struct Line {
  int number = 0;  ///< 1-based
  std::string text;
};

/// The lines of `text` that hold something, in order; blank and
/// comment-only lines are skipped.
std::vector<Line> lines(const std::string& text);

/// One `key = value` line, split at its first '=' and both sides trimmed.
struct KeyValue {
  int line = 0;
  std::string key;
  std::string value;
};

/// The `key = value` lines of a scenario or fault file. Throws
/// std::invalid_argument "<what> line N: ..." for a line without '=' and
/// for an empty key or value.
std::vector<KeyValue> key_values(const std::string& text, const std::string& what);

/// The whole file at `path`. Throws std::runtime_error "cannot open <what>
/// '<path>'" (or "cannot read ...", a directory for one) when it fails.
std::string read_file(const std::string& path, const std::string& what);

/// JSON string escaping (RFC 8259): quotes, backslashes and every control
/// character.
std::string json_escape(const std::string& s);

}  // namespace adattl::text

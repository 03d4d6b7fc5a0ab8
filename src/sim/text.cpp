#include "sim/text.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>

namespace adattl::text {
namespace {

/// An optional sign and one or more decimal digits, nothing else.
bool integer_form(const std::string& s) {
  const std::size_t digits = !s.empty() && (s[0] == '+' || s[0] == '-') ? 1 : 0;
  return s.size() > digits && s.find_first_not_of("0123456789", digits) == std::string::npos;
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

}  // namespace

std::string trim(const std::string& s) {
  const std::size_t a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return "";
  const std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t at = s.find(sep); at != std::string::npos; at = s.find(sep, start)) {
    fields.push_back(s.substr(start, at - start));
    start = at + 1;
  }
  fields.push_back(s.substr(start));
  return fields;
}

std::optional<double> parse_number(const std::string& s) {
  // strtod would skip leading whitespace; the grammar does not.
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
  return v;
}

std::string format_number(double v) {
  char buf[64];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::optional<std::int64_t> parse_integer(const std::string& s, std::int64_t lo,
                                          std::int64_t hi) {
  if (!integer_form(s)) return std::nullopt;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), nullptr, 10);
  if (errno == ERANGE || v < lo || v > hi) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_unsigned(const std::string& s) {
  if (!integer_form(s) || s[0] == '-') return std::nullopt;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return v;
}

std::optional<bool> parse_bool(const std::string& s) {
  if (s == "true" || s == "1") return true;
  if (s == "false" || s == "0") return false;
  return std::nullopt;
}

std::vector<Line> lines(const std::string& text) {
  std::vector<Line> out;
  int number = 0;
  for (const std::string& raw : split(text, '\n')) {
    ++number;
    std::size_t comment = 0;
    while (comment < raw.size() &&
           !(raw[comment] == '#' &&
             (comment == 0 || raw[comment - 1] == ' ' || raw[comment - 1] == '\t'))) {
      ++comment;
    }
    std::string line = trim(raw.substr(0, comment));
    if (!line.empty()) out.push_back({number, std::move(line)});
  }
  return out;
}

std::vector<KeyValue> key_values(const std::string& text, const std::string& what) {
  std::vector<KeyValue> out;
  for (const Line& line : lines(text)) {
    const std::string at = what + " line " + std::to_string(line.number) + ": ";
    const std::size_t eq = line.text.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument(at + "expected 'key = value', got '" + line.text + "'");
    }
    KeyValue kv{line.number, trim(line.text.substr(0, eq)), trim(line.text.substr(eq + 1))};
    if (kv.key.empty()) throw std::invalid_argument(at + "empty key");
    if (kv.value.empty()) throw std::invalid_argument(at + "empty value for '" + kv.key + "'");
    out.push_back(std::move(kv));
  }
  return out;
}

std::string read_file(const std::string& path, const std::string& what) {
  const std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("cannot open " + what + " '" + path + "'");
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) text.append(buf, n);
  if (std::ferror(f.get())) throw std::runtime_error("cannot read " + what + " '" + path + "'");
  return text;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

}  // namespace adattl::text

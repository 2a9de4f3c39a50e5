#pragma once
// Minimal dependency-free JSON well-formedness checker.
//
// obs_test runs it on every timeline render, proving that what
// `cdtrace render` writes validates (CI cross-checks with an independent
// parser, python3 -m json.tool). This is a validator, not a parser: it
// walks the grammar and reports the first structural error, keeping
// nothing in memory but a containment stack. Accepts any JSON value at
// top level; trailing whitespace is fine, trailing garbage is not.

#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>

namespace cdsim::obs {

struct JsonCheckResult {
  bool ok = false;
  std::size_t error_at = 0;  ///< Byte offset of the first error.
  std::string error;         ///< Human-readable reason when !ok.
};

namespace detail {

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  JsonCheckResult run() {
    skip_ws();
    if (!value()) return fail_result();
    skip_ws();
    if (pos_ != text_.size()) {
      err_ = "trailing garbage after top-level value";
      return fail_result();
    }
    return {true, 0, {}};
  }

 private:
  [[nodiscard]] JsonCheckResult fail_result() const {
    return {false, pos_, err_.empty() ? "malformed JSON" : err_};
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      err_ = "bad literal";
      return false;
    }
    pos_ += word.size();
    return true;
  }

  bool string() {
    ++pos_;  // opening quote
    while (!eof()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (eof()) break;
        const char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (eof() || std::isxdigit(static_cast<unsigned char>(peek())) == 0) {
              err_ = "bad \\u escape";
              return false;
            }
            ++pos_;
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          err_ = "bad escape";
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        err_ = "control byte in string";
        return false;
      }
    }
    err_ = "unterminated string";
    return false;
  }

  bool number() {
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0) {
      err_ = "bad number";
      return false;
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0)
      ++pos_;
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0) {
        err_ = "bad fraction";
        return false;
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0)
        ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0) {
        err_ = "bad exponent";
        return false;
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0)
        ++pos_;
    }
    return true;
  }

  bool enter() {
    if (++depth_ > 64) {  // traces nest ~4 deep; cap guards hostile input
      err_ = "nesting too deep";
      return false;
    }
    return true;
  }

  bool object() {
    if (!enter()) return false;
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') {
        err_ = "expected object key";
        return false;
      }
      if (!string()) return false;
      skip_ws();
      if (eof() || peek() != ':') {
        err_ = "expected ':'";
        return false;
      }
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (!eof() && peek() == ',') {
        ++pos_;
        continue;
      }
      if (!eof() && peek() == '}') {
        ++pos_;
        --depth_;
        return true;
      }
      err_ = "expected ',' or '}'";
      return false;
    }
  }

  bool array() {
    if (!enter()) return false;
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (!eof() && peek() == ',') {
        ++pos_;
        continue;
      }
      if (!eof() && peek() == ']') {
        ++pos_;
        --depth_;
        return true;
      }
      err_ = "expected ',' or ']'";
      return false;
    }
  }

  bool value() {  // NOLINT(misc-no-recursion) — bounded by trace nesting (~4)
    if (eof()) {
      err_ = "unexpected end of input";
      return false;
    }
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string err_;
};

}  // namespace detail

/// Validates `text` as one complete JSON document.
inline JsonCheckResult json_check(std::string_view text) {
  return detail::JsonChecker(text).run();
}

}  // namespace cdsim::obs

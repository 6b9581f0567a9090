// JsonWriter: the one writer behind every JSON document the simulator emits
// (BENCH_*, CAMPAIGN_* and TRACE_* files, and the time-attribution, metrics
// and latency sections inside them).
//
// The writer owns three jobs and nothing else:
//   - separators: the comma between elements and the colon after a key, in
//     one of two styles. kSpaced writes ", " and ": " (BENCH, CAMPAIGN and
//     time-attribution documents); kCompact writes "," and ":" (traces and
//     metrics).
//   - string escaping: '"', '\\', '\n', '\t', and every other control
//     character as \u00XX. Keys are escaped like values.
//   - number formatting: integers exactly; doubles with ten significant
//     digits (printf's g conversion), NaN as null; fixed-point values with
//     three decimals from integer thousandths.
//
// Layout is explicit, never automatic: there is no pretty-printer and no
// indentation option. Break(n) puts the next token on a new line indented
// n spaces, exactly where a document has a line break, so every emitter
// fixes its own bytes and two emitters cannot drift apart through a shared
// indentation policy. A comma before a break ends its line (",\n  ").
//
// Output is a pure function of the calls made: same calls, same bytes.
#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace fbufs {

class JsonWriter {
 public:
  enum class Style { kSpaced, kCompact };

  explicit JsonWriter(Style style = Style::kSpaced)
      : spaced_(style == Style::kSpaced) {}

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  // An object member's key; the next call writes its value.
  JsonWriter& Key(std::string_view key) {
    Separate();
    AppendString(key);
    out_ += spaced_ ? ": " : ":";
    after_key_ = true;
    return *this;
  }

  JsonWriter& String(std::string_view s) {
    Separate();
    AppendString(s);
    return *this;
  }

  JsonWriter& Bool(bool b) {
    Separate();
    out_ += b ? "true" : "false";
    return *this;
  }

  // Integers are written exactly; floating point with ten significant
  // digits, NaN as null.
  template <typename T>
  JsonWriter& Number(T v) {
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>,
                  "Number takes an integer or floating-point value");
    Separate();
    if constexpr (std::is_floating_point_v<T>) {
      if (v != v) {
        out_ += "null";
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.10g", static_cast<double>(v));
        out_ += buf;
      }
    } else {
      out_ += std::to_string(v);
    }
    return *this;
  }

  // |thousandths| / 1000 with exactly three decimals ("12.005"), integer
  // arithmetic only: trace timestamps are simulated ns written as µs.
  JsonWriter& Thousandths(std::uint64_t thousandths) {
    Separate();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(thousandths / 1000),
                  static_cast<unsigned long long>(thousandths % 1000));
    out_ += buf;
    return *this;
  }

  // A complete value rendered by another JsonWriter, inserted verbatim.
  JsonWriter& Raw(std::string_view json) {
    Separate();
    out_ += json;
    return *this;
  }

  // The next token (element, key or closing bracket) starts on a new line
  // indented |indent| spaces.
  JsonWriter& Break(int indent) {
    break_ = indent;
    comma_first_ = false;
    return *this;
  }

  // Like Break, but the comma before the next element starts the new line
  // instead of ending the old one. BENCH files put their host-timed
  // "sim_throughput" member on such a line, so dropping that one line
  // leaves the rest of the document valid and deterministic.
  JsonWriter& LeadingCommaBreak(int indent) {
    break_ = indent;
    comma_first_ = true;
    return *this;
  }

  // The document so far; the writer is spent afterwards.
  std::string Take() { return std::move(out_); }

 private:
  JsonWriter& Open(char bracket) {
    Separate();
    out_ += bracket;
    has_element_.push_back(false);
    return *this;
  }

  JsonWriter& Close(char bracket) {
    FlushBreak();
    out_ += bracket;
    has_element_.pop_back();
    return *this;
  }

  // Everything that goes before a new element: the comma when the
  // enclosing container already has one, and any requested line break.
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (has_element_.back() && comma_first_) {
      FlushBreak();
      out_ += ',';
    } else if (has_element_.back()) {
      out_ += break_ >= 0 || !spaced_ ? "," : ", ";
      FlushBreak();
    } else {
      FlushBreak();
    }
    has_element_.back() = true;
  }

  void FlushBreak() {
    if (break_ >= 0) {
      out_ += '\n';
      out_.append(static_cast<std::size_t>(break_), ' ');
      break_ = -1;
      comma_first_ = false;
    }
  }

  void AppendString(std::string_view s) {
    out_ += '"';
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') {
        out_ += '\\';
        out_ += ch;
      } else if (ch == '\n') {
        out_ += "\\n";
      } else if (ch == '\t') {
        out_ += "\\t";
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(ch));
        out_ += buf;
      } else {
        out_ += ch;
      }
    }
    out_ += '"';
  }

  bool spaced_;
  std::string out_;
  // Whether each open container already holds an element; the bottom entry
  // stands for the document itself.
  std::vector<bool> has_element_{false};
  bool after_key_ = false;
  int break_ = -1;  // pending line break's indent; -1 = none
  bool comma_first_ = false;
};

// Writes |text| to |path|, replacing the file. Returns false on any I/O
// failure. The one place a BENCH, CAMPAIGN or TRACE file is opened.
inline bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0 && n == text.size();
}

}  // namespace fbufs

#endif  // SRC_OBS_JSON_H_

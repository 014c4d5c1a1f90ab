#pragma once

/// \file json_writer.hpp
/// Shared JSON emission for the bench harnesses.
///
///  * JsonWriter — a small streaming writer (objects, arrays, scalar
///    values) with automatic comma placement and two-space indentation.
///    Strings are escaped and doubles rendered via the same helpers the
///    metrics exporter uses.
///  * ResultSink — the `--json FILE` seam every fig*/table*/ablation*
///    harness shares: rows of named cells accumulate next to the human
///    table and are written as
///
///        { "bench": "<name>", "schema_version": 1, "quick": <bool>,
///          "rows": [ { "<key>": <value>, ... }, ... ] }
///
///    when (and only when) the harness was invoked with --json.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "obs/export.hpp"

namespace rtdb::bench {

/// Streaming JSON writer. The caller is responsible for balanced
/// begin/end calls; keys only inside objects, values where JSON allows
/// them. Output is pretty-printed (stable, diff-friendly).
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(const char* k) {
    comma();
    indent();
    os_ << '"';
    obs::json_escape(os_, k);
    os_ << "\": ";
    pending_key_ = true;
    return *this;
  }

  JsonWriter& value(double v) {
    prefix();
    obs::json_number(os_, v);
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    prefix();
    os_ << v;
    return *this;
  }
  JsonWriter& value(bool v) {
    prefix();
    os_ << (v ? "true" : "false");
    return *this;
  }
  JsonWriter& value(const char* v) {
    prefix();
    os_ << '"';
    obs::json_escape(os_, v);
    os_ << '"';
    return *this;
  }
  JsonWriter& value(const std::string& v) { return value(v.c_str()); }

 private:
  void prefix() {
    if (pending_key_) {
      pending_key_ = false;
    } else {
      comma();
      indent();
    }
    need_comma_ = true;
  }

  JsonWriter& open(char c) {
    prefix();
    os_ << c;
    depth_ += 1;
    need_comma_ = false;
    return *this;
  }
  JsonWriter& close(char c) {
    depth_ -= 1;
    os_ << '\n';
    for (int i = 0; i < depth_; ++i) os_ << "  ";
    os_ << c;
    need_comma_ = true;
    return *this;
  }

  void comma() {
    if (need_comma_) os_ << ',';
    need_comma_ = false;
  }
  void indent() {
    if (depth_ == 0) return;
    os_ << '\n';
    for (int i = 0; i < depth_; ++i) os_ << "  ";
  }

  std::ostream& os_;
  int depth_ = 0;
  bool need_comma_ = false;
  bool pending_key_ = false;
};

/// One named cell of a result row: number, string or bool.
struct Cell {
  Cell(const char* k, double v) : key(k), kind(Kind::kDouble), num(v) {}
  Cell(const char* k, std::uint64_t v)
      : key(k), kind(Kind::kUint), uint(v) {}
  Cell(const char* k, unsigned long long v)
      : key(k), kind(Kind::kUint), uint(v) {}
  Cell(const char* k, int v)
      : key(k), kind(Kind::kUint), uint(static_cast<std::uint64_t>(v)) {}
  Cell(const char* k, const char* v) : key(k), kind(Kind::kString), str(v) {}
  Cell(const char* k, const std::string& v)
      : key(k), kind(Kind::kString), str(v) {}
  Cell(const char* k, bool v) : key(k), kind(Kind::kBool), flag(v) {}

  enum class Kind { kDouble, kUint, kString, kBool };
  std::string key;
  Kind kind;
  double num = 0;
  std::uint64_t uint = 0;
  std::string str;
  bool flag = false;
};

/// The harness-facing sink. Construct it from argc/argv once at the top of
/// main; call row() wherever the human table prints a line; the file is
/// written on destruction (or an explicit write()) iff --json was given.
class ResultSink {
 public:
  ResultSink(int argc, char** argv, const char* bench_name, bool quick)
      : bench_name_(bench_name), quick_(quick) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) path_ = argv[i + 1];
    }
  }
  ~ResultSink() { write(); }
  ResultSink(const ResultSink&) = delete;
  ResultSink& operator=(const ResultSink&) = delete;

  /// True when --json was requested (lets harnesses skip extra work).
  [[nodiscard]] bool wanted() const { return !path_.empty(); }

  void row(std::initializer_list<Cell> cells) {
    if (!wanted()) return;
    rows_.emplace_back(cells.begin(), cells.end());
  }

  /// Writes the file now (idempotent; the destructor is the usual caller).
  void write() {
    if (written_ || !wanted()) return;
    written_ = true;
    std::ofstream os(path_);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", path_.c_str());
      return;
    }
    JsonWriter w(os);
    w.begin_object();
    w.key("bench").value(bench_name_);
    w.key("schema_version").value(std::uint64_t{1});
    w.key("quick").value(quick_);
    w.key("rows").begin_array();
    for (const auto& r : rows_) {
      w.begin_object();
      for (const Cell& c : r) {
        w.key(c.key.c_str());
        switch (c.kind) {
          case Cell::Kind::kDouble: w.value(c.num); break;
          case Cell::Kind::kUint: w.value(c.uint); break;
          case Cell::Kind::kString: w.value(c.str); break;
          case Cell::Kind::kBool: w.value(c.flag); break;
        }
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
    std::fprintf(stderr, "json: %s\n", path_.c_str());
  }

 private:
  std::string bench_name_;
  bool quick_;
  std::string path_;
  std::vector<std::vector<Cell>> rows_;
  bool written_ = false;
};

}  // namespace rtdb::bench

// traceprof — offline analyzer for mergepath Chrome-JSON traces.
//
//   traceprof <trace.json> [--top N] [--json <out.json>]
//
// Reads a trace exported by `mpsort --trace`, the bench harnesses or the
// flight recorder (`mpsort --flight-dump`), reconstructs the span DAG per
// thread from the complete ("X") events, and reports:
//
//  - the critical path: the chain of leaf span segments that ends at the
//    latest event and, walking backwards, always continues through the
//    segment that finished last before the chain's current start. Time on
//    the chain is attributed to the owning span's name; gaps where no
//    segment was running become "(wait)". Merge Path guarantees equal
//    per-lane *work* (Green et al., IPPS 2012), so on a balanced run the
//    critical path is ~wall-clock of one lane — anything longer than the
//    busiest worker is scheduling/idle time, which this attribution
//    exposes by name.
//  - a per-thread busy/idle breakdown: busy is the time inside
//    `pool.lane` spans (a lane nested in a lane counts once), idle is the
//    window minus busy, and `lanes` counts the `pool.lane` spans.
//
// The critical path over complete events is a heuristic (the trace has no
// explicit dependency edges); it is exact for fork-join traces where a
// parent's residual segments resume when its children finish — which is
// what the ThreadPool emits.
//
// --json writes a machine-readable report (schema mergepath-traceprof-v1)
// that scripts/check_trace.py validates in CI. The parser below is a
// minimal recursive-descent JSON reader: the repo has no JSON dependency,
// and traces are machine-written, so strictness beats completeness.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/table.hpp"

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser.

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  const Value* find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Value parse() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value() {
    skip_ws();
    Value v;
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"':
        v.type = Value::Type::kString;
        v.str = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.type = Value::Type::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.type = Value::Type::kBool;
        v.boolean = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return v;
      default: return parse_number();
    }
  }

  Value parse_object() {
    Value v;
    v.type = Value::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    Value v;
    v.type = Value::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("bad escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // Trace names are ASCII; map anything else to '?'.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    Value v;
    v.type = Value::Type::kNumber;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Trace model.

/// The exporter writes microseconds with three decimals (ns precision);
/// ×1000 + round recovers exact integer nanoseconds.
std::uint64_t micros_to_ns(double us) {
  return static_cast<std::uint64_t>(std::llround(us * 1000.0));
}

struct SpanRec {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint32_t tid = 0;
  std::string name;
};

/// A maximal interval where a span runs its own code (no child active).
struct Segment {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint32_t tid = 0;
  const std::string* name = nullptr;
};

struct WorkerStats {
  std::uint32_t tid = 0;
  std::uint64_t busy_ns = 0;  ///< outermost pool.lane span time
  std::uint64_t idle_ns = 0;  ///< window − busy
  std::uint64_t lanes = 0;    ///< pool.lane spans
};

struct PathEntry {
  std::string name;
  std::uint64_t ns = 0;
  std::uint64_t count = 0;  ///< segments attributed to this name
};

struct Analysis {
  std::uint64_t wall_ns = 0;
  std::size_t events = 0;
  std::size_t span_count = 0;
  std::string clock = "unknown";
  std::vector<PathEntry> critical_path;  ///< descending by ns
  std::uint64_t critical_total_ns = 0;
  std::vector<WorkerStats> workers;      ///< ascending tid
  bool flight = false;
  std::string degrade_reason;
};

/// Splits one thread's spans into leaf segments and per-worker stats.
/// `spans` must be sorted by (begin asc, end desc) — parents first.
void analyze_thread(std::vector<SpanRec>& spans, WorkerStats& stats,
                    std::vector<Segment>& segments) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanRec& x, const SpanRec& y) {
              if (x.begin != y.begin) return x.begin < y.begin;
              return x.end > y.end;
            });

  // Nesting sweep: stack of open spans; `cursor[depth]` tracks how far the
  // open span at that depth has already been accounted for (by children).
  struct Open {
    const SpanRec* span;
    std::uint64_t cursor;  ///< next unaccounted instant inside the span
  };
  std::vector<Open> stack;
  const auto close_to = [&](std::uint64_t limit) {
    // Pop spans that end at or before `limit`, emitting their tail
    // segments.
    while (!stack.empty() && stack.back().span->end <= limit) {
      Open open = stack.back();
      stack.pop_back();
      if (open.span->end > open.cursor)
        segments.push_back(Segment{open.cursor, open.span->end,
                                   open.span->tid, &open.span->name});
      if (!stack.empty())
        stack.back().cursor =
            std::max(stack.back().cursor, open.span->end);
    }
  };

  std::uint64_t lane_end = 0;  // end of the outermost open pool.lane
  for (const SpanRec& span : spans) {
    close_to(span.begin);
    if (span.name == "pool.lane") {
      ++stats.lanes;
      if (span.begin >= lane_end) {
        stats.busy_ns += span.end - span.begin;
        lane_end = span.end;
      }
    }
    if (!stack.empty() && span.begin > stack.back().cursor) {
      // The parent ran its own code up to this child's start.
      const Open& parent = stack.back();
      segments.push_back(Segment{parent.cursor, span.begin, parent.span->tid,
                                 &parent.span->name});
    }
    if (!stack.empty())
      stack.back().cursor = std::max(stack.back().cursor, span.begin);
    stack.push_back(Open{&span, span.begin});
  }
  close_to(~std::uint64_t{0});
}

/// Backward last-finisher walk over the leaf segments of every thread.
void critical_path(std::vector<Segment> segments, std::uint64_t window_begin,
                   std::uint64_t window_end, Analysis& out) {
  segments.erase(std::remove_if(segments.begin(), segments.end(),
                                [](const Segment& s) {
                                  return s.end <= s.begin;
                                }),
                 segments.end());
  std::sort(segments.begin(), segments.end(),
            [](const Segment& x, const Segment& y) {
              return x.end < y.end;
            });

  std::map<std::string, PathEntry> entries;
  const auto charge = [&](const std::string& name, std::uint64_t ns) {
    PathEntry& entry = entries[name];
    entry.name = name;
    entry.ns += ns;
    ++entry.count;
  };

  std::uint64_t cursor = window_end;
  std::uint32_t prev_tid = ~std::uint32_t{0};
  while (cursor > window_begin) {
    // Latest-finishing segment at or before the cursor.
    auto it = std::upper_bound(
        segments.begin(), segments.end(), cursor,
        [](std::uint64_t t, const Segment& s) { return t < s.end; });
    if (it == segments.begin()) {
      charge("(wait)", cursor - window_begin);
      break;
    }
    --it;
    // Among ties on end, stay on the previous thread when possible (a
    // span resuming after its child is the true dependency).
    auto pick = it;
    for (auto scan = it;
         scan->end == it->end;
         --scan) {
      if (scan->tid == prev_tid) {
        pick = scan;
        break;
      }
      if (scan == segments.begin()) break;
    }
    if (pick->end < cursor) charge("(wait)", cursor - pick->end);
    const std::uint64_t begin = std::max(pick->begin, window_begin);
    charge(*pick->name, pick->end - begin);
    prev_tid = pick->tid;
    cursor = begin;
  }

  for (auto& [name, entry] : entries) {
    out.critical_total_ns += entry.ns;
    out.critical_path.push_back(entry);
  }
  std::sort(out.critical_path.begin(), out.critical_path.end(),
            [](const PathEntry& x, const PathEntry& y) {
              if (x.ns != y.ns) return x.ns > y.ns;
              return x.name < y.name;
            });
}

Analysis analyze(const Value& doc) {
  Analysis out;
  if (const Value* other = doc.find("otherData")) {
    if (const Value* clock = other->find("clock"))
      if (const Value* source = clock->find("source"))
        out.clock = source->str;
    if (const Value* flight = other->find("flight_recorder"))
      out.flight = flight->boolean;
    if (const Value* reason = other->find("reason"))
      out.degrade_reason = reason->str;
  }

  const Value* events = doc.find("traceEvents");
  if (!events || events->type != Value::Type::kArray)
    throw std::runtime_error("no traceEvents array in trace");

  std::map<std::uint32_t, std::vector<SpanRec>> spans_by_tid;
  std::map<std::uint32_t, WorkerStats> workers;
  std::uint64_t min_ts = ~std::uint64_t{0};
  std::uint64_t max_end = 0;
  for (const Value& event : events->array) {
    const Value* ph = event.find("ph");
    const Value* name = event.find("name");
    const Value* ts = event.find("ts");
    const Value* tid = event.find("tid");
    if (!ph || !name || !ts || !tid) continue;
    if (ph->str == "M") continue;
    ++out.events;
    const auto t = static_cast<std::uint32_t>(tid->number);
    const std::uint64_t begin = micros_to_ns(ts->number);
    WorkerStats& worker = workers[t];
    worker.tid = t;
    min_ts = std::min(min_ts, begin);
    max_end = std::max(max_end, begin);
    if (ph->str == "X") {
      const Value* dur = event.find("dur");
      SpanRec span;
      span.begin = begin;
      span.end = begin + (dur ? micros_to_ns(dur->number) : 0);
      span.tid = t;
      span.name = name->str;
      max_end = std::max(max_end, span.end);
      spans_by_tid[t].push_back(std::move(span));
      ++out.span_count;
    }
  }

  if (out.events == 0 || max_end <= min_ts) {
    for (const auto& [t, worker] : workers) out.workers.push_back(worker);
    return out;
  }
  out.wall_ns = max_end - min_ts;

  std::vector<Segment> segments;
  for (auto& [t, spans] : spans_by_tid)
    analyze_thread(spans, workers[t], segments);
  for (auto& [t, worker] : workers) {
    worker.idle_ns =
        out.wall_ns > worker.busy_ns ? out.wall_ns - worker.busy_ns : 0;
    out.workers.push_back(worker);
  }

  critical_path(std::move(segments), min_ts, max_end, out);
  return out;
}

// ---------------------------------------------------------------------------
// Reports.

std::string fmt_ms(std::uint64_t ns) {
  return mp::fmt_double(static_cast<double>(ns) / 1e6, 3);
}

void print_report(const Analysis& analysis, std::size_t top) {
  std::cout << "traceprof: " << analysis.events << " events, "
            << analysis.span_count << " spans, " << analysis.workers.size()
            << " thread(s), wall " << fmt_ms(analysis.wall_ns)
            << " ms (clock: " << analysis.clock << ")\n";
  if (analysis.flight) {
    std::cout << "flight-recorder snapshot"
              << (analysis.degrade_reason.empty()
                      ? std::string(" (on demand)")
                      : " (degraded: " + analysis.degrade_reason + ")")
              << "\n";
  }
  if (analysis.events == 0) {
    std::cout << "empty trace — nothing to analyze\n";
    return;
  }

  std::cout << "\ncritical path: " << fmt_ms(analysis.critical_total_ns)
            << " ms attributed across " << analysis.critical_path.size()
            << " span name(s)\n";
  mp::Table path_table({"span", "time_ms", "cp_share", "segments"});
  std::size_t shown = 0;
  for (const PathEntry& entry : analysis.critical_path) {
    if (shown++ >= top) break;
    const double share =
        analysis.critical_total_ns
            ? 100.0 * static_cast<double>(entry.ns) /
                  static_cast<double>(analysis.critical_total_ns)
            : 0.0;
    path_table.add_row({entry.name, fmt_ms(entry.ns),
                        mp::fmt_double(share, 1) + "%",
                        std::to_string(entry.count)});
  }
  path_table.print(std::cout);

  std::cout << "\nper-worker breakdown (window " << fmt_ms(analysis.wall_ns)
            << " ms)\n";
  mp::Table worker_table({"tid", "busy_ms", "idle_ms", "busy_pct", "lanes"});
  for (const WorkerStats& worker : analysis.workers) {
    const double pct =
        analysis.wall_ns
            ? 100.0 * static_cast<double>(worker.busy_ns) /
                  static_cast<double>(analysis.wall_ns)
            : 0.0;
    worker_table.add_row(
        {std::to_string(worker.tid), fmt_ms(worker.busy_ns),
         fmt_ms(worker.idle_ns), mp::fmt_double(pct, 1) + "%",
         std::to_string(worker.lanes)});
  }
  worker_table.print(std::cout);
}

void write_json_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

bool write_json_report(const Analysis& analysis, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "traceprof: cannot write " << path << "\n";
    return false;
  }
  out << "{\"schema\":\"mergepath-traceprof-v1\",\"wall_ns\":"
      << analysis.wall_ns << ",\"events\":" << analysis.events
      << ",\"spans\":" << analysis.span_count << ",\"clock\":\""
      << analysis.clock << "\",\"flight\":"
      << (analysis.flight ? "true" : "false")
      << ",\"critical_path\":{\"total_ns\":" << analysis.critical_total_ns
      << ",\"entries\":[";
  bool first = true;
  for (const PathEntry& entry : analysis.critical_path) {
    if (!first) out << ',';
    first = false;
    out << "\n{\"name\":";
    write_json_escaped(out, entry.name);
    out << ",\"ns\":" << entry.ns << ",\"segments\":" << entry.count << '}';
  }
  out << "]},\"workers\":[";
  first = true;
  for (const WorkerStats& worker : analysis.workers) {
    if (!first) out << ',';
    first = false;
    out << "\n{\"tid\":" << worker.tid << ",\"busy_ns\":" << worker.busy_ns
        << ",\"idle_ns\":" << worker.idle_ns << ",\"lanes\":" << worker.lanes
        << '}';
  }
  out << "]}\n";
  return out.good();
}

[[noreturn]] void usage() {
  std::cerr << "usage: traceprof <trace.json> [--top N] [--json <out>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string json_path;
  std::size_t top = 20;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top") {
      if (++i >= argc) usage();
      top = static_cast<std::size_t>(std::stoul(argv[i]));
    } else if (arg == "--json") {
      if (++i >= argc) usage();
      json_path = argv[i];
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else {
      usage();
    }
  }
  if (trace_path.empty()) usage();

  std::ifstream in(trace_path);
  if (!in) {
    std::cerr << "traceprof: cannot read " << trace_path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  try {
    JsonParser parser(text);
    const Value doc = parser.parse();
    const Analysis analysis = analyze(doc);
    print_report(analysis, top);
    if (!json_path.empty() && !write_json_report(analysis, json_path))
      return 1;
  } catch (const std::exception& error) {
    std::cerr << "traceprof: " << trace_path << ": " << error.what() << "\n";
    return 1;
  }
  return 0;
}

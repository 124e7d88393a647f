#include "obs/export.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>

#include "core/macros.hpp"
#include "obs/context.hpp"

namespace matsci::obs {

// --- JSON rendering helpers --------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

JsonRecord& JsonRecord::set(const std::string& key, double value) {
  fields_.emplace_back(key, json_number(value));
  return *this;
}

JsonRecord& JsonRecord::set(const std::string& key, std::int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonRecord& JsonRecord::set(const std::string& key, const std::string& value) {
  std::string quoted(1, '"');
  quoted.append(json_escape(value)).push_back('"');
  fields_.emplace_back(key, std::move(quoted));
  return *this;
}

JsonRecord& JsonRecord::set(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonRecord& JsonRecord::set_raw(const std::string& key,
                                const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonRecord::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out.append(1, '"').append(json_escape(fields_[i].first)).append("\":");
    out.append(fields_[i].second);
  }
  out += "}";
  return out;
}

// --- Chrome trace ------------------------------------------------------------

std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              std::int64_t dropped_events) {
  std::uint64_t epoch_ns = 0;
  for (const TraceEvent& ev : events) {
    if (epoch_ns == 0 || ev.start_ns < epoch_ns) epoch_ns = ev.start_ns;
  }
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",";
  if (dropped_events >= 0) {
    // Chrome/Perfetto pass unknown root keys through; "otherData" is
    // the conventional metadata slot. Ring overflow is no longer
    // silent: consumers can see how many spans the window lost.
    os << "\"otherData\":{\"droppedEvents\":" << dropped_events
       << ",\"ringCapacityPerThread\":" << Tracer::kRingCapacity << "},";
  }
  os << "\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    if (i > 0) os << ",";
    os << "\n{\"name\":\"" << json_escape(ev.name ? ev.name : "?")
       << "\",\"cat\":\"matsci\",\"ph\":\"X\",\"ts\":"
       << json_number(static_cast<double>(ev.start_ns - epoch_ns) / 1.0e3)
       << ",\"dur\":" << json_number(static_cast<double>(ev.dur_ns) / 1.0e3)
       << ",\"pid\":1,\"tid\":" << ev.tid;
    if (ev.trace_id != 0) {
      // Request-tracing ids ride in "args" (Chrome/Perfetto show them in
      // the span detail pane; the validator ignores extra fields).
      os << ",\"args\":{\"trace_id\":\"" << trace_id_hex(ev.trace_id)
         << "\",\"span_id\":\"" << trace_id_hex(ev.span_id)
         << "\",\"parent_span_id\":\"" << trace_id_hex(ev.parent_span_id)
         << "\"}";
    }
    os << "}";
  }
  os << "\n]}\n";
  return os.str();
}

void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events,
                        std::int64_t dropped_events) {
  std::ofstream os(path);
  MATSCI_CHECK(os.is_open(), "cannot open '" << path << "' for writing");
  os << chrome_trace_json(events, dropped_events);
}

// --- Minimal strict JSON parser (validation only) ----------------------------

namespace {

/// Recursive-descent JSON reader over a string. Parses (without
/// building a document) and lets the Chrome validator inspect the
/// pieces it cares about via callbacks on "traceEvents" elements.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(nullptr);
      case '[': return parse_array();
      case '"': return parse_string(nullptr);
      case 't': return parse_literal("true");
      case 'f': return parse_literal("false");
      case 'n': return parse_literal("null");
      default: return parse_number(nullptr);
    }
  }

  /// Parse an object, recording keys (and scalar values as raw text)
  /// into *fields when non-null.
  bool parse_object(std::vector<std::pair<std::string, std::string>>* fields) {
    if (!consume('{')) return false;
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      const std::size_t value_start = pos_;
      if (!parse_value()) return false;
      if (fields != nullptr) {
        fields->emplace_back(key,
                             text_.substr(value_start, pos_ - value_start));
      }
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array() {
    if (!consume('[')) return false;
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      if (!parse_value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; skip_ws(); continue; }
      if (peek() == ']') { ++pos_; return true; }
      return fail("expected ',' or ']' in array");
    }
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  std::size_t pos() const { return pos_; }
  void seek(std::size_t pos) { pos_ = pos; }
  const std::string& error() const { return error_; }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("dangling escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': case '\\': case '/': case 'b': case 'f':
          case 'n': case 'r': case 't':
            if (out != nullptr) *out += esc;  // decoded form irrelevant here
            break;
          case 'u':
            for (int i = 0; i < 4; ++i) {
              if (pos_ >= text_.size() ||
                  !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
                return fail("bad \\u escape");
              }
              ++pos_;
            }
            break;
          default: return fail("bad escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      } else if (out != nullptr) {
        *out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(double* out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      return fail("expected a number");
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("digit required after decimal point");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("digit required in exponent");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (out != nullptr) *out = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  bool fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " (at offset " + std::to_string(pos_) + ")";
    }
    return false;
  }

 private:
  bool parse_literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return fail(std::string("bad literal, expected '") + lit + "'");
      }
      ++pos_;
    }
    return true;
  }
  bool consume(char c) {
    if (peek() != c) return fail(std::string("expected '") + c + "'");
    ++pos_;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

bool set_error(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

bool looks_numeric(const std::string& raw) {
  return !raw.empty() && (raw[0] == '-' ||
                          std::isdigit(static_cast<unsigned char>(raw[0])));
}

bool looks_string(const std::string& raw) {
  return raw.size() >= 2 && raw.front() == '"' && raw.back() == '"';
}

}  // namespace

bool validate_json(const std::string& text, std::string* error) {
  JsonParser parser(text);
  if (!parser.parse_value() || !parser.at_end()) {
    return set_error(error, parser.error().empty() ? "trailing garbage"
                                                   : parser.error());
  }
  return true;
}

bool validate_chrome_trace_json(const std::string& json, std::string* error) {
  if (!validate_json(json, error)) return false;

  // Re-walk the (now known valid) document structurally.
  JsonParser parser(json);
  std::vector<std::pair<std::string, std::string>> root;
  parser.skip_ws();
  if (parser.peek() != '{' || !parser.parse_object(&root)) {
    return set_error(error, "root is not an object");
  }
  std::string events_raw;
  for (const auto& [key, raw] : root) {
    if (key == "traceEvents") events_raw = raw;
  }
  if (events_raw.empty() || events_raw[0] != '[') {
    return set_error(error, "missing \"traceEvents\" array");
  }

  JsonParser events(events_raw);
  events.skip_ws();
  events.seek(events.pos() + 1);  // past '['
  events.skip_ws();
  std::size_t index = 0;
  if (events.peek() != ']') {
    for (;; ++index) {
      events.skip_ws();
      std::vector<std::pair<std::string, std::string>> fields;
      if (events.peek() != '{' || !events.parse_object(&fields)) {
        return set_error(error, "traceEvents[" + std::to_string(index) +
                                    "] is not an object");
      }
      std::string name, ph, ts, dur, pid, tid;
      for (const auto& [key, raw] : fields) {
        if (key == "name") name = raw;
        else if (key == "ph") ph = raw;
        else if (key == "ts") ts = raw;
        else if (key == "dur") dur = raw;
        else if (key == "pid") pid = raw;
        else if (key == "tid") tid = raw;
      }
      const std::string at = "traceEvents[" + std::to_string(index) + "]";
      if (!looks_string(name)) return set_error(error, at + ": bad \"name\"");
      if (!looks_string(ph)) return set_error(error, at + ": bad \"ph\"");
      if (!looks_numeric(ts)) return set_error(error, at + ": bad \"ts\"");
      if (!looks_numeric(pid)) return set_error(error, at + ": bad \"pid\"");
      if (!looks_numeric(tid)) return set_error(error, at + ": bad \"tid\"");
      if (ph == "\"X\"" && !looks_numeric(dur)) {
        return set_error(error, at + ": complete event without \"dur\"");
      }
      events.skip_ws();
      if (events.peek() == ',') { events.seek(events.pos() + 1); continue; }
      break;
    }
  }
  return true;
}

// --- Prometheus text ---------------------------------------------------------

namespace {

std::string prom_name(const std::string& name) {
  std::string out = "matsci_";
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == ':')
               ? c
               : '_';
  }
  return out;
}

}  // namespace

std::string prometheus_escape_label_value(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prometheus_escape_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prometheus_text(const MetricsRegistry::Snapshot& snapshot) {
  std::ostringstream os;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " counter\n" << n << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " gauge\n" << n << " " << json_number(value)
       << "\n";
  }
  for (const auto& [name, points] : snapshot.series) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " gauge\n"
       << "# HELP " << n << " "
       << prometheus_escape_help("last value of step-keyed series '" + name +
                                 "' (" + std::to_string(points.size()) +
                                 " points recorded)")
       << "\n"
       << n << " " << json_number(points.empty() ? 0.0 : points.back().second)
       << "\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " histogram\n";
    std::int64_t cumulative = 0;
    for (std::size_t b = 0; b < hist.bounds.size() && b < hist.counts.size();
         ++b) {
      cumulative += hist.counts[b];
      os << n << "_bucket{le=\""
         << prometheus_escape_label_value(json_number(hist.bounds[b]))
         << "\"} " << cumulative << "\n";
    }
    // The +Inf bucket is mandatory and must equal _count, even for
    // hand-built snapshots whose counts lack an overflow slot.
    os << n << "_bucket{le=\"+Inf\"} " << hist.count;
    if (hist.exemplar_trace_id != 0) {
      // OpenMetrics-style exemplar: the last traced observation, keyed
      // by its trace id so a dashboard can jump from a latency series
      // straight to the offending request's spans in /tracez.
      os << " # {trace_id=\"" << trace_id_hex(hist.exemplar_trace_id)
         << "\"} " << json_number(hist.exemplar_value);
    }
    os << "\n";
    os << n << "_sum " << json_number(hist.sum) << "\n"
       << n << "_count " << hist.count << "\n";
  }
  return os.str();
}

namespace {

bool prom_fail(std::string* error, std::size_t line_no,
               const std::string& why) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + why;
  }
  return false;
}

bool prom_valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == ':')) {
      return false;
    }
  }
  return !std::isdigit(static_cast<unsigned char>(name[0]));
}

bool prom_valid_value(const std::string& value) {
  if (value.empty()) return false;
  if (value == "+Inf" || value == "-Inf" || value == "NaN") return true;
  char* end = nullptr;
  std::strtod(value.c_str(), &end);
  return end != nullptr && *end == '\0';
}

/// Parse a `key="escaped value"` comma-separated label body (the text
/// between '{' and '}'); used for both a sample's label set and an
/// exemplar's. Fills *le_value (when non-null) with the decoded value
/// of the "le" label.
bool parse_prom_labels(const std::string& labels, std::string* le_value,
                       std::size_t line_no, std::string* error) {
  std::size_t pos = 0;
  while (pos < labels.size()) {
    const std::size_t eq = labels.find('=', pos);
    if (eq == std::string::npos) {
      return prom_fail(error, line_no, "label without '='");
    }
    const std::string key = labels.substr(pos, eq - pos);
    if (!prom_valid_name(key)) {
      return prom_fail(error, line_no, "bad label name '" + key + "'");
    }
    if (eq + 1 >= labels.size() || labels[eq + 1] != '"') {
      return prom_fail(error, line_no, "label value must be quoted");
    }
    std::string decoded;
    std::size_t i = eq + 2;
    bool closed = false;
    for (; i < labels.size(); ++i) {
      const char c = labels[i];
      if (c == '\\') {
        if (i + 1 >= labels.size()) {
          return prom_fail(error, line_no, "dangling escape in label");
        }
        const char esc = labels[++i];
        if (esc == '\\') decoded += '\\';
        else if (esc == '"') decoded += '"';
        else if (esc == 'n') decoded += '\n';
        else return prom_fail(error, line_no, "bad label escape");
      } else if (c == '"') {
        closed = true;
        ++i;
        break;
      } else if (c == '\n') {
        return prom_fail(error, line_no, "raw newline in label value");
      } else {
        decoded += c;
      }
    }
    if (!closed) {
      return prom_fail(error, line_no, "unterminated label value");
    }
    if (key == "le" && le_value != nullptr) *le_value = decoded;
    if (i < labels.size()) {
      if (labels[i] != ',') {
        return prom_fail(error, line_no, "expected ',' between labels");
      }
      ++i;
    }
    pos = i;
  }
  return true;
}

}  // namespace

bool validate_prometheus_text(const std::string& text, std::string* error) {
  std::istringstream lines(text);
  std::string line;
  std::size_t line_no = 0;
  // Histogram bookkeeping keyed by base metric name.
  std::map<std::string, std::int64_t> last_bucket;      // last cumulative
  std::map<std::string, std::int64_t> inf_bucket;       // le="+Inf" value
  std::map<std::string, std::int64_t> histogram_count;  // _count value
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, kind, name;
      comment >> hash >> kind >> name;
      if (kind != "TYPE" && kind != "HELP") {
        return prom_fail(error, line_no, "comment must be # TYPE or # HELP");
      }
      if (!prom_valid_name(name)) {
        return prom_fail(error, line_no, "bad metric name '" + name + "'");
      }
      continue;
    }
    // Sample line: name[{labels}] value
    std::string name, labels, value;
    const std::size_t brace = line.find('{');
    const std::size_t space = line.find(' ');
    if (brace != std::string::npos && (space == std::string::npos ||
                                       brace < space)) {
      name = line.substr(0, brace);
      const std::size_t close = line.find('}', brace);
      if (close == std::string::npos) {
        return prom_fail(error, line_no, "unterminated label set");
      }
      labels = line.substr(brace + 1, close - brace - 1);
      if (close + 2 > line.size() || line[close + 1] != ' ') {
        return prom_fail(error, line_no, "expected ' ' after labels");
      }
      value = line.substr(close + 2);
    } else {
      if (space == std::string::npos) {
        return prom_fail(error, line_no, "expected 'name value'");
      }
      name = line.substr(0, space);
      value = line.substr(space + 1);
    }
    if (!prom_valid_name(name)) {
      return prom_fail(error, line_no, "bad metric name '" + name + "'");
    }
    // Optional OpenMetrics-style exemplar after the sample value:
    //   name{labels} value # {exemplar_labels} exemplar_value
    const std::size_t exm = value.find(" # ");
    if (exm != std::string::npos) {
      const std::string exemplar = value.substr(exm + 3);
      value = value.substr(0, exm);
      if (exemplar.empty() || exemplar[0] != '{') {
        return prom_fail(error, line_no, "exemplar must start with '{'");
      }
      const std::size_t close = exemplar.find('}');
      if (close == std::string::npos) {
        return prom_fail(error, line_no, "unterminated exemplar label set");
      }
      if (!parse_prom_labels(exemplar.substr(1, close - 1), nullptr, line_no,
                             error)) {
        return false;
      }
      if (close + 2 > exemplar.size() || exemplar[close + 1] != ' ' ||
          !prom_valid_value(exemplar.substr(close + 2))) {
        return prom_fail(error, line_no, "bad exemplar value");
      }
    }
    if (!prom_valid_value(value)) {
      return prom_fail(error, line_no, "bad sample value '" + value + "'");
    }
    // Label pairs: key="escaped value", comma separated.
    std::string le_value;
    if (!parse_prom_labels(labels, &le_value, line_no, error)) {
      return false;
    }
    // Histogram structure: cumulative buckets ending at le="+Inf".
    constexpr const char* kBucket = "_bucket";
    if (name.size() > 7 && name.compare(name.size() - 7, 7, kBucket) == 0 &&
        !le_value.empty()) {
      const std::string base = name.substr(0, name.size() - 7);
      const std::int64_t count = static_cast<std::int64_t>(
          std::strtod(value.c_str(), nullptr));
      auto it = last_bucket.find(base);
      if (it != last_bucket.end() && count < it->second) {
        return prom_fail(error, line_no,
                         "histogram '" + base + "' buckets not cumulative");
      }
      last_bucket[base] = count;
      if (le_value == "+Inf") inf_bucket[base] = count;
    } else if (name.size() > 6 &&
               name.compare(name.size() - 6, 6, "_count") == 0) {
      histogram_count[name.substr(0, name.size() - 6)] =
          static_cast<std::int64_t>(std::strtod(value.c_str(), nullptr));
    }
  }
  for (const auto& [base, count] : histogram_count) {
    if (last_bucket.count(base) == 0) continue;  // plain *_count counter
    auto inf = inf_bucket.find(base);
    if (inf == inf_bucket.end()) {
      return prom_fail(error, 0, "histogram '" + base +
                                     "' missing le=\"+Inf\" bucket");
    }
    if (inf->second != count) {
      return prom_fail(error, 0, "histogram '" + base +
                                     "' +Inf bucket != _count");
    }
  }
  return true;
}

void write_prometheus(const std::string& path,
                      const MetricsRegistry::Snapshot& snapshot) {
  std::ofstream os(path);
  MATSCI_CHECK(os.is_open(), "cannot open '" << path << "' for writing");
  os << prometheus_text(snapshot);
}

// --- BENCH_*.json snapshots --------------------------------------------------

std::vector<JsonRecord> snapshot_records(
    const MetricsRegistry::Snapshot& snapshot) {
  std::vector<JsonRecord> records;
  for (const auto& [name, value] : snapshot.counters) {
    records.push_back(
        JsonRecord().set("record", "counter").set("name", name).set("value",
                                                                    value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    records.push_back(
        JsonRecord().set("record", "gauge").set("name", name).set("value",
                                                                  value));
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    JsonRecord rec;
    rec.set("record", "histogram")
        .set("name", name)
        .set("count", hist.count)
        .set("sum", hist.sum)
        .set("min", hist.min)
        .set("max", hist.max)
        .set("mean", hist.mean())
        .set("p50", hist.percentile(0.50))
        .set("p95", hist.percentile(0.95))
        .set("p99", hist.percentile(0.99));
    if (hist.exemplar_trace_id != 0) {
      rec.set("exemplar_trace_id", trace_id_hex(hist.exemplar_trace_id))
          .set("exemplar_value", hist.exemplar_value);
    }
    records.push_back(std::move(rec));
  }
  for (const auto& [name, points] : snapshot.series) {
    std::string arr = "[";
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i > 0) arr += ",";
      arr.append(1, '[').append(std::to_string(points[i].first));
      arr.append(1, ',').append(json_number(points[i].second)).append(1, ']');
    }
    arr += "]";
    records.push_back(JsonRecord()
                          .set("record", "series")
                          .set("name", name)
                          .set_raw("points", arr));
  }
  return records;
}

BenchReporter::BenchReporter(std::string name, std::string out_dir)
    : name_(std::move(name)), out_dir_(std::move(out_dir)) {
  Tracer::global().clear();
  Tracer::global().set_enabled(true);
}

void BenchReporter::add(const JsonRecord& record) {
  std::string line = record.str();
  if (line.find("\"bench\"") == std::string::npos) {
    const std::string prefix = "{\"bench\":\"" + json_escape(name_) + "\"";
    line = line == "{}" ? prefix + "}" : prefix + "," + line.substr(1);
  }
  std::printf("%s\n", line.c_str());
  records_.push_back(std::move(line));
}

std::string BenchReporter::bench_json_path() const {
  return out_dir_ + "/BENCH_" + name_ + ".json";
}

std::string BenchReporter::trace_json_path() const {
  return out_dir_ + "/TRACE_" + name_ + ".json";
}

void BenchReporter::finish() {
  if (finished_) return;
  finished_ = true;

  // Surface ring wrap-around in the registry snapshot before draining
  // it: exporting partial traces silently was the original sin here.
  const std::int64_t dropped = Tracer::global().dropped();
  MetricsRegistry::global()
      .gauge("obs.trace.dropped_events")
      .set(static_cast<double>(dropped));

  {
    std::ofstream os(bench_json_path());
    MATSCI_CHECK(os.is_open(),
                 "cannot open '" << bench_json_path() << "' for writing");
    os << JsonRecord()
              .set("record", "meta")
              .set("bench", name_)
              .set("schema", "matsci.bench.v1")
              .set("emitted_unix_s",
                   static_cast<std::int64_t>(std::time(nullptr)))
              .str()
       << "\n";
    for (const std::string& line : records_) os << line << "\n";
    for (const JsonRecord& rec :
         snapshot_records(MetricsRegistry::global().snapshot())) {
      os << rec.str() << "\n";
    }
  }

  const std::vector<TraceEvent> events = Tracer::global().collect();
  write_chrome_trace(trace_json_path(), events, dropped);

  std::printf("obs: wrote %s (%zu records) and %s (%zu spans%s)\n",
              bench_json_path().c_str(), records_.size(),
              trace_json_path().c_str(), events.size(),
              Tracer::global().dropped() > 0 ? ", ring wrapped" : "");
}

BenchReporter::~BenchReporter() {
  try {
    finish();
  } catch (...) {
    // Destructor must not throw; finish() failures surface when called
    // explicitly.
  }
}

}  // namespace matsci::obs

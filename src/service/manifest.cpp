#include "service/manifest.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <sstream>

#include "models/models.hpp"
#include "reduce/reduce.hpp"
#include "util/parse_num.hpp"

namespace gpo::service {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) pos = s.size();
    if (pos > start) out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  std::ostringstream msg;
  msg << "manifest";
  if (line_no > 0) msg << " line " << line_no;
  msg << ": " << what;
  throw ManifestError(msg.str());
}

}  // namespace

const std::vector<std::string>& default_portfolio() {
  static const std::vector<std::string> kDefault = {"gpo", "por", "bdd",
                                                    "unfold"};
  return kDefault;
}

bool is_known_engine(const std::string& name) {
  static const char* kKnown[] = {"full", "por", "bdd", "gpo", "unfold"};
  return std::any_of(std::begin(kKnown), std::end(kKnown),
                     [&](const char* k) { return name == k; });
}

JobSpec parse_job_line(const std::string& line, std::size_t line_no) {
  std::istringstream in(line);
  JobSpec spec;
  spec.line = line_no;
  if (!(in >> spec.model)) fail(line_no, "missing model");
  if (!spec.model.ends_with(".net") && !spec.model.ends_with(".pnml")) {
    try {
      (void)models::spec_size(spec.model);
    } catch (const std::invalid_argument& e) {
      fail(line_no, e.what());
    }
  }
  std::string field;
  while (in >> field) {
    std::size_t eq = field.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= field.size())
      fail(line_no, "malformed field '" + field + "' (want key=value)");
    std::string key = field.substr(0, eq);
    std::string value = field.substr(eq + 1);
    try {
      if (key == "engines") {
        spec.engines = split(value, ',');
        if (spec.engines.empty()) fail(line_no, "engines= names no engine");
        for (const std::string& e : spec.engines)
          if (!is_known_engine(e))
            fail(line_no, "unknown engine '" + e + "'");
      } else if (key == "max-seconds") {
        spec.max_seconds = util::parse_double(
            value, std::numeric_limits<double>::denorm_min());
      } else if (key == "max-states") {
        spec.max_states = util::parse_int<std::size_t>(value, 1);
      } else if (key == "reduce") {
        if (!reduce::parse_reduce_level(value))
          fail(line_no, "reduce must be off, safe or aggressive, got '" +
                            value + "'");
        spec.reduce = value;
      } else if (key == "expect") {
        if (value != "deadlock" && value != "no-deadlock")
          fail(line_no, "expect must be deadlock or no-deadlock, got '" +
                            value + "'");
        spec.expect = value;
      } else {
        fail(line_no, "unknown key '" + key + "'");
      }
    } catch (const ManifestError&) {
      throw;
    } catch (const std::exception& e) {
      fail(line_no, "bad value for " + key + ": " + e.what());
    }
  }
  return spec;
}

bool read_line(std::istream& in, std::string& line, bool& too_long) {
  line.clear();
  too_long = false;
  std::streambuf* buf = in.rdbuf();
  bool any = false;
  for (int ch = buf->sbumpc(); ch != std::char_traits<char>::eof();
       ch = buf->sbumpc()) {
    if (ch == '\n') return true;
    any = true;
    if (line.size() < kMaxLineBytes)
      line.push_back(static_cast<char>(ch));
    else
      too_long = true;
  }
  in.setstate(std::ios::eofbit);
  return any;
}

Manifest parse_manifest(std::istream& in) {
  Manifest m;
  std::string line;
  std::size_t line_no = 0;
  bool too_long = false;
  while (read_line(in, line, too_long)) {
    ++line_no;
    if (too_long)
      fail(line_no, "line too long (over " + std::to_string(kMaxLineBytes) +
                        " bytes)");
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    std::size_t last = line.find_last_not_of(" \t\r");
    std::string trimmed = line.substr(first, last - first + 1);
    // Manifest-level directive, not a job: the event-log destination.
    if (trimmed.compare(0, 7, "events=") == 0) {
      if (trimmed.size() == 7) fail(line_no, "events= names no file");
      m.events_path = trimmed.substr(7);
      continue;
    }
    m.jobs.push_back(parse_job_line(line, line_no));
  }
  return m;
}

Manifest parse_manifest_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ManifestError("cannot read manifest '" + path + "'");
  return parse_manifest(in);
}

}  // namespace gpo::service

#include "parser/pnml.hpp"

#include <cctype>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "petri/builder.hpp"
#include "util/parse_num.hpp"

namespace gpo::parser {

namespace {

// ---------------------------------------------------------------------------
// Minimal XML reader: elements, attributes, text, comments, declarations.
// ---------------------------------------------------------------------------

struct XmlNode {
  std::string name;  // local name, namespace prefix stripped
  std::size_t line = 0;  // 1-based input line of the opening '<'
  std::map<std::string, std::string> attrs;
  std::vector<std::unique_ptr<XmlNode>> children;
  std::string text;  // concatenated character data
};

class XmlReader {
 public:
  explicit XmlReader(std::string_view text) : text_(text) {}

  std::unique_ptr<XmlNode> parse_document() {
    skip_misc();
    auto root = parse_element();
    skip_misc();
    if (pos_ != text_.size()) fail("trailing content after root element");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i)
      if (text_[i] == '\n') ++line;
    throw ParseError(line, "PNML/XML: " + message);
  }

  bool starts_with(std::string_view s) const {
    return text_.substr(pos_, s.size()) == s;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  void skip_misc() {
    while (true) {
      skip_ws();
      if (starts_with("<?")) {
        std::size_t end = text_.find("?>", pos_);
        if (end == std::string_view::npos) fail("unterminated declaration");
        pos_ = end + 2;
      } else if (starts_with("<!--")) {
        std::size_t end = text_.find("-->", pos_);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
      } else if (starts_with("<!")) {  // DOCTYPE etc.
        std::size_t end = text_.find('>', pos_);
        if (end == std::string_view::npos) fail("unterminated <!...>");
        pos_ = end + 1;
      } else {
        break;
      }
    }
  }

  std::string read_name() {
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-' || text_[pos_] == '.' ||
            text_[pos_] == ':'))
      ++pos_;
    if (pos_ == start) fail("expected a name");
    std::string name(text_.substr(start, pos_ - start));
    // Strip any namespace prefix.
    if (auto colon = name.rfind(':'); colon != std::string::npos)
      name = name.substr(colon + 1);
    return name;
  }

  std::string decode_entities(std::string_view raw) {
    std::string out;
    for (std::size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out += raw[i++];
        continue;
      }
      auto semi = raw.find(';', i);
      if (semi == std::string_view::npos) fail("unterminated entity");
      std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "lt") out += '<';
      else if (entity == "gt") out += '>';
      else if (entity == "amp") out += '&';
      else if (entity == "quot") out += '"';
      else if (entity == "apos") out += '\'';
      else fail("unsupported entity &" + std::string(entity) + ";");
      i = semi + 1;
    }
    return out;
  }

  std::unique_ptr<XmlNode> parse_element() {
    if (!starts_with("<")) fail("expected an element");
    auto node = std::make_unique<XmlNode>();
    node->line = line_at(pos_);
    ++pos_;
    node->name = read_name();
    // Attributes.
    while (true) {
      skip_ws();
      if (starts_with("/>")) {
        pos_ += 2;
        return node;
      }
      if (starts_with(">")) {
        ++pos_;
        break;
      }
      std::string attr = read_name();
      skip_ws();
      if (!starts_with("=")) fail("expected '=' after attribute name");
      ++pos_;
      skip_ws();
      if (pos_ >= text_.size() || (text_[pos_] != '"' && text_[pos_] != '\''))
        fail("expected quoted attribute value");
      char quote = text_[pos_++];
      std::size_t end = text_.find(quote, pos_);
      if (end == std::string_view::npos) fail("unterminated attribute value");
      node->attrs[attr] = decode_entities(text_.substr(pos_, end - pos_));
      pos_ = end + 1;
    }
    // Content until the matching close tag.
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated element <" + node->name + ">");
      if (starts_with("</")) {
        pos_ += 2;
        std::string close = read_name();
        if (close != node->name)
          fail("mismatched close tag </" + close + "> for <" + node->name +
               ">");
        skip_ws();
        if (!starts_with(">")) fail("malformed close tag");
        ++pos_;
        return node;
      }
      if (starts_with("<!--")) {
        std::size_t end = text_.find("-->", pos_);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
      } else if (starts_with("<")) {
        node->children.push_back(parse_element());
      } else {
        std::size_t end = text_.find('<', pos_);
        if (end == std::string_view::npos) end = text_.size();
        node->text += decode_entities(text_.substr(pos_, end - pos_));
        pos_ = end;
      }
    }
  }

  /// Line of `pos`, tracked incrementally: element starts are visited in
  /// increasing position order, so one forward cursor suffices (fail() still
  /// scans from the front — it runs once, on the way out).
  std::size_t line_at(std::size_t pos) {
    for (; line_cursor_ < pos && line_cursor_ < text_.size(); ++line_cursor_)
      if (text_[line_cursor_] == '\n') ++line_;
    return line_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t line_cursor_ = 0;
};

// ---------------------------------------------------------------------------
// PNML interpretation
// ---------------------------------------------------------------------------

const XmlNode* find_child(const XmlNode& node, std::string_view name) {
  for (const auto& c : node.children)
    if (c->name == name) return c.get();
  return nullptr;
}

std::string trimmed(std::string s) {
  auto issp = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!s.empty() && issp(s.front())) s.erase(s.begin());
  while (!s.empty() && issp(s.back())) s.pop_back();
  return s;
}

/// <name><text>label</text></name> -> label, else fallback.
std::string label_of(const XmlNode& node, const std::string& fallback) {
  if (const XmlNode* name = find_child(node, "name"))
    if (const XmlNode* text = find_child(*name, "text")) {
      std::string t = trimmed(text->text);
      if (!t.empty()) return t;
    }
  return fallback;
}

/// Strict decimal integer (optional sign, digits, nothing else). stoi alone
/// would accept "1x" by prefix and let "abc" escape as std::invalid_argument
/// instead of a diagnosable ParseError.
int parse_int_strict(const std::string& t, std::size_t line,
                     const std::string& what) {
  try {
    return util::parse_int<int>(t);
  } catch (const std::out_of_range&) {
    throw ParseError(line, "PNML: " + what + " '" + t + "' out of range");
  } catch (const std::invalid_argument&) {
    throw ParseError(line, "PNML: malformed " + what + " '" + t +
                               "' (expected an integer)");
  }
}

int int_label(const XmlNode& node, std::string_view child, int fallback,
              const std::string& what) {
  const XmlNode* c = find_child(node, child);
  if (c == nullptr) return fallback;
  std::string t;
  if (const XmlNode* text = find_child(*c, "text"))
    t = trimmed(text->text);
  else
    t = trimmed(c->text);
  if (t.empty()) return fallback;
  return parse_int_strict(t, c->line, what);
}

struct PnmlArc {
  std::string source;
  std::string target;
  int weight;
  std::size_t line;  // of the <arc> element, for diagnostics
};

void collect(const XmlNode& scope, std::vector<const XmlNode*>& places,
             std::vector<const XmlNode*>& transitions,
             std::vector<PnmlArc>& arcs) {
  for (const auto& c : scope.children) {
    if (c->name == "page") {
      collect(*c, places, transitions, arcs);
    } else if (c->name == "place") {
      places.push_back(c.get());
    } else if (c->name == "transition") {
      transitions.push_back(c.get());
    } else if (c->name == "arc") {
      auto src = c->attrs.find("source");
      auto dst = c->attrs.find("target");
      if (src == c->attrs.end() || dst == c->attrs.end())
        throw ParseError(c->line, "PNML: arc without source/target");
      arcs.push_back({src->second, dst->second,
                      int_label(*c, "inscription", 1,
                                "arc weight (inscription)"),
                      c->line});
    }
  }
}

}  // namespace

petri::PetriNet parse_pnml(std::string_view text) {
  XmlReader reader(text);
  auto root = reader.parse_document();
  const XmlNode* pnml = root->name == "pnml" ? root.get() : nullptr;
  if (pnml == nullptr) throw ParseError(1, "PNML: root element is not <pnml>");
  const XmlNode* net_node = find_child(*pnml, "net");
  if (net_node == nullptr) throw ParseError(1, "PNML: no <net> element");

  std::vector<const XmlNode*> places, transitions;
  std::vector<PnmlArc> arcs;
  collect(*net_node, places, transitions, arcs);

  std::string net_name = "pnml_net";
  if (auto it = net_node->attrs.find("id"); it != net_node->attrs.end())
    net_name = it->second;
  petri::NetBuilder builder(label_of(*net_node, net_name));

  std::map<std::string, petri::PlaceId> place_by_id;
  std::map<std::string, petri::TransitionId> transition_by_id;
  for (const XmlNode* p : places) {
    auto it = p->attrs.find("id");
    if (it == p->attrs.end())
      throw ParseError(p->line, "PNML: place without id");
    int marking = int_label(*p, "initialMarking", 0, "initial marking");
    if (marking < 0 || marking > 1)
      throw ParseError(p->line, "PNML: non-safe initial marking " +
                                    std::to_string(marking) + " on " +
                                    it->second);
    place_by_id[it->second] =
        builder.add_place(label_of(*p, it->second), marking == 1);
  }
  for (const XmlNode* t : transitions) {
    auto it = t->attrs.find("id");
    if (it == t->attrs.end())
      throw ParseError(t->line, "PNML: transition without id");
    transition_by_id[it->second] =
        builder.add_transition(label_of(*t, it->second));
  }
  for (const PnmlArc& a : arcs) {
    if (a.weight != 1)
      throw ParseError(a.line, "PNML: arc weight " +
                                   std::to_string(a.weight) + " on " +
                                   a.source + " -> " + a.target +
                                   " (only weight-1 arcs are supported on "
                                   "1-safe nets)");
    bool src_place = place_by_id.contains(a.source);
    bool dst_place = place_by_id.contains(a.target);
    if (src_place && transition_by_id.contains(a.target)) {
      builder.add_input_arc(place_by_id[a.source],
                            transition_by_id[a.target]);
    } else if (transition_by_id.contains(a.source) && dst_place) {
      builder.add_output_arc(transition_by_id[a.source],
                             place_by_id[a.target]);
    } else {
      throw ParseError(a.line,
                       "PNML: arc between unknown or same-kind nodes: " +
                           a.source + " -> " + a.target);
    }
  }
  return builder.build();
}

petri::PetriNet parse_pnml_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open PNML file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_pnml(ss.str());
}

namespace {
std::string xml_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}
}  // namespace

void write_pnml(std::ostream& os, const petri::PetriNet& net) {
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
     << "<pnml xmlns=\"http://www.pnml.org/version-2009/grammar/pnml\">\n"
     << "  <net id=\"" << xml_escape(net.name())
     << "\" type=\"http://www.pnml.org/version-2009/grammar/ptnet\">\n"
     << "    <name><text>" << xml_escape(net.name()) << "</text></name>\n"
     << "    <page id=\"page0\">\n";
  for (petri::PlaceId p = 0; p < net.place_count(); ++p) {
    os << "      <place id=\"p" << p << "\">\n"
       << "        <name><text>" << xml_escape(net.place(p).name)
       << "</text></name>\n";
    if (net.initial_marking().test(p))
      os << "        <initialMarking><text>1</text></initialMarking>\n";
    os << "      </place>\n";
  }
  for (petri::TransitionId t = 0; t < net.transition_count(); ++t) {
    os << "      <transition id=\"t" << t << "\">\n"
       << "        <name><text>" << xml_escape(net.transition(t).name)
       << "</text></name>\n"
       << "      </transition>\n";
  }
  std::size_t arc = 0;
  for (petri::TransitionId t = 0; t < net.transition_count(); ++t) {
    for (petri::PlaceId p : net.transition(t).pre)
      os << "      <arc id=\"a" << arc++ << "\" source=\"p" << p
         << "\" target=\"t" << t << "\"/>\n";
    for (petri::PlaceId p : net.transition(t).post)
      os << "      <arc id=\"a" << arc++ << "\" source=\"t" << t
         << "\" target=\"p" << p << "\"/>\n";
  }
  os << "    </page>\n  </net>\n</pnml>\n";
}

std::string pnml_to_string(const petri::PetriNet& net) {
  std::ostringstream ss;
  write_pnml(ss, net);
  return ss.str();
}

}  // namespace gpo::parser

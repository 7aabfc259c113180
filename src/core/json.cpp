#include "core/json.h"

#include <cstdio>

namespace agrarsec::core {

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned>(c));
          out += esc;
        } else {
          out.push_back(c);
        }
    }
  }
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  append_json_escaped(out, s);
  out.push_back('"');
}

void append_jsonl_as_array(std::string& out, std::string_view jsonl) {
  out.push_back('[');
  bool first = true;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t nl = jsonl.find('\n', pos);
    if (nl == std::string_view::npos) nl = jsonl.size();
    if (nl > pos) {
      if (!first) out.push_back(',');
      first = false;
      out.append(jsonl.substr(pos, nl - pos));
    }
    pos = nl + 1;
  }
  out.push_back(']');
}

}  // namespace agrarsec::core

// JSON text helpers shared by every serializer in the library: the one
// string escaper and the JSONL-to-array embedding. Number formatting
// stays with each writer.
#pragma once

#include <string>
#include <string_view>

namespace agrarsec::core {

/// Appends `s` to `out` as the inside of a JSON string literal (no
/// quotes): `"` and `\` get a backslash, \n \r \t their short escapes and
/// every other control byte \u00XX. Bytes >= 0x20 pass through unchanged.
void append_json_escaped(std::string& out, std::string_view s);

/// Appends `s` to `out` as a quoted JSON string literal.
void append_json_string(std::string& out, std::string_view s);

/// Appends newline-separated JSONL object lines as a JSON array of those
/// lines, verbatim and in order; empty lines are skipped.
void append_jsonl_as_array(std::string& out, std::string_view jsonl);

}  // namespace agrarsec::core

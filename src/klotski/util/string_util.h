// Small string helpers shared by NPD parsing, flags and table output.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace klotski::util {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view text, char delimiter);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items,
                 std::string_view separator);

/// Lower-cases ASCII characters.
std::string to_lower(std::string_view text);

/// Formats a double with fixed precision, trimming trailing zeros
/// ("1.50" -> "1.5", "2.00" -> "2").
std::string format_double(double value, int max_precision = 3);

/// Human formatting with thousands separators: 123456 -> "123,456".
std::string with_commas(long long value);

/// Narrows a parsed integer to int, throwing std::invalid_argument
/// ("<what>: <value> is out of range") when it does not fit, instead of
/// letting a cast truncate it.
int checked_int(long long value, std::string_view what);

}  // namespace klotski::util

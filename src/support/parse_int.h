/**
 * @file
 * Strict integer parsing for values that arrive from outside the
 * program: command-line flags, fault specs and daemon request fields.
 */

#ifndef CHF_SUPPORT_PARSE_INT_H
#define CHF_SUPPORT_PARSE_INT_H

#include <charconv>
#include <string_view>

namespace chf {

/**
 * Parse all of @p text as a base-10 integer of type T: an optional
 * '-' and digits, with no whitespace, '+' or trailing bytes. False
 * (and @p out untouched) when the text is not such an integer or the
 * value does not fit in T.
 */
template <typename T>
bool
parseInteger(std::string_view text, T *out)
{
    const char *end = text.data() + text.size();
    T value{};
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return false;
    *out = value;
    return true;
}

/** parseInteger, and the value must also be at least @p min. */
template <typename T>
bool
parseAtLeast(std::string_view text, T min, T *out)
{
    T value{};
    if (!parseInteger(text, &value) || value < min)
        return false;
    *out = value;
    return true;
}

} // namespace chf

#endif // CHF_SUPPORT_PARSE_INT_H

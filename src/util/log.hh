/**
 * @file
 * Minimal logging: informational/warning messages that benches can
 * silence with setQuiet(), plus printf-style string formatting and
 * the strict decimal parse the command-line tools share.
 */

#ifndef LP_UTIL_LOG_HH
#define LP_UTIL_LOG_HH

#include <cstdint>
#include <string>

namespace lp
{

/** Suppress (or re-enable) inform()/warn() output. */
void setQuiet(bool quiet);

/** True when inform()/warn() are suppressed. */
bool quiet();

/** Print an informational message to stderr (unless quiet). */
__attribute__((format(printf, 1, 2))) void inform(const char *fmt, ...);

/** Print a warning to stderr (unless quiet). */
__attribute__((format(printf, 1, 2))) void warn(const char *fmt, ...);

/** Print an error and abort the process. */
__attribute__((format(printf, 1, 2), noreturn)) void
panic(const char *fmt, ...);

/** printf into a std::string. */
__attribute__((format(printf, 1, 2))) std::string
strfmt(const char *fmt, ...);

/**
 * Escape a string for embedding in a JSON string literal: quotes and
 * backslashes are backslash-escaped, control bytes below 0x20 become
 * \uXXXX sequences. Every free-text field in a machine-readable
 * report must pass through this, or a single strerror() message with
 * a quote in it yields unparseable output.
 */
std::string jsonEscape(const std::string &s);

/**
 * Parse @p text as an unsigned decimal integer: one or more digits
 * 0-9 and nothing else (no sign, space or prefix), at most
 * UINT64_MAX. False, with @p out untouched, for anything else.
 */
bool parseDecimal(const std::string &text, std::uint64_t *out);

} // namespace lp

#endif // LP_UTIL_LOG_HH

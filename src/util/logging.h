/**
 * @file
 * Minimal logging and fatal-error facilities.
 *
 * Follows the gem5 fatal()/panic() distinction: fatal() is for user
 * errors (bad configuration), panic() for internal invariant violations.
 */
#ifndef ELK_UTIL_LOGGING_H
#define ELK_UTIL_LOGGING_H

#include <sstream>
#include <string>

namespace elk::util {

/// Severity levels for log messages.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the global minimum level that is actually emitted.
void set_log_level(LogLevel level);

/// Returns the global minimum emitted level.
LogLevel log_level();

/// Emits a single log line to stderr if @p level passes the filter.
void log_message(LogLevel level, const std::string& msg);

/**
 * Terminates the process with an error message. Use for user errors
 * (bad configuration, invalid arguments); exits with code 1.
 */
[[noreturn]] void fatal(const std::string& msg);

/**
 * Terminates the process with an internal-error message. Use for
 * conditions that indicate a bug in Elk itself; calls abort().
 */
[[noreturn]] void panic(const std::string& msg);

namespace detail {

/// Stream-building helper so call sites can write `logf() << "x=" << x`.
class LogStream {
  public:
    LogStream(LogLevel level) : level_(level) {}
    ~LogStream() { log_message(level_, stream_.str()); }
    template <typename T>
    LogStream& operator<<(const T& v)
    {
        stream_ << v;
        return *this;
    }

  private:
    LogLevel level_;
    std::ostringstream stream_;
};

}  // namespace detail

/// Returns a stream that logs at debug level on destruction.
inline detail::LogStream log_debug() { return {LogLevel::kDebug}; }
/// Returns a stream that logs at info level on destruction.
inline detail::LogStream log_info() { return {LogLevel::kInfo}; }
/// Returns a stream that logs at warn level on destruction.
inline detail::LogStream log_warn() { return {LogLevel::kWarn}; }
/// Returns a stream that logs at error level on destruction.
inline detail::LogStream log_error() { return {LogLevel::kError}; }

/// Asserts an Elk-internal invariant; panics with @p msg when violated.
inline void
check(bool cond, const std::string& msg)
{
    if (!cond) {
        panic(msg);
    }
}

/// Literal-message overload: builds no std::string unless @p cond fails
/// (many checks sit on per-iteration paths).
inline void
check(bool cond, const char* msg)
{
    if (!cond) {
        panic(msg);
    }
}

}  // namespace elk::util

#endif  // ELK_UTIL_LOGGING_H

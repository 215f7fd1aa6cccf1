/**
 * @file
 * Error-reporting and status-message helpers in the spirit of gem5's
 * logging.hh: `fatal` for user errors, `panic` for internal invariant
 * violations, `warn`/`inform` for status messages.
 */
#ifndef BBS_COMMON_LOGGING_HPP
#define BBS_COMMON_LOGGING_HPP

#include <cstdlib>
#include <sstream>
#include <string>

namespace bbs {

namespace detail {

/** Assemble a message from streamable parts. */
template <typename... Args>
std::string
concatMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

/**
 * Print, flush stdio, _Exit(1): the condition is the user's fault. No
 * static destructors run, so live pool threads are never joined from a
 * forked child or from themselves.
 */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print and abort(): the condition is a library bug. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/**
 * Terminate with an error message for conditions caused by invalid input or
 * configuration (analogous to gem5's fatal()): print, flush stdio, _Exit(1).
 * No static destructors run, so live pool threads are never joined from a
 * forked child or from themselves.
 */
template <typename... Args>
[[noreturn]] void
fatal(const char *file, int line, Args &&...args)
{
    detail::fatalImpl(file, line,
                      detail::concatMessage(std::forward<Args>(args)...));
}

/**
 * Terminate with an error message for conditions that indicate a bug in this
 * library (analogous to gem5's panic()).
 */
template <typename... Args>
[[noreturn]] void
panic(const char *file, int line, Args &&...args)
{
    detail::panicImpl(file, line,
                      detail::concatMessage(std::forward<Args>(args)...));
}

} // namespace bbs

#define BBS_FATAL(...) ::bbs::fatal(__FILE__, __LINE__, __VA_ARGS__)
#define BBS_PANIC(...) ::bbs::panic(__FILE__, __LINE__, __VA_ARGS__)

/** Check an internal invariant; on failure report expression and message. */
#define BBS_ASSERT(cond, ...)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::bbs::panic(__FILE__, __LINE__, "assertion failed: " #cond " ", \
                         ##__VA_ARGS__);                                     \
        }                                                                    \
    } while (0)

/** Validate user-provided arguments; on failure report the message. */
#define BBS_REQUIRE(cond, ...)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::bbs::fatal(__FILE__, __LINE__, "requirement failed: " #cond    \
                         " ", ##__VA_ARGS__);                                \
        }                                                                    \
    } while (0)

namespace bbs {

/** Non-fatal warning to stderr. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concatMessage(std::forward<Args>(args)...));
}

/** Informational status message to stderr. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concatMessage(std::forward<Args>(args)...));
}

} // namespace bbs

#endif // BBS_COMMON_LOGGING_HPP

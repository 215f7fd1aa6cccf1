#include "common/logging.hpp"

#include <cstdio>

namespace bbs {
namespace detail {

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    // _Exit, not exit: static destructors (the worker pool's join among
    // them) must not run while pool threads may be live. See logging.hpp.
    std::fflush(nullptr);
    std::_Exit(1);
}

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace bbs

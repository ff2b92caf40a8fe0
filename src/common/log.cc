#include "common/log.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace cais
{

namespace
{
// cais-lint: allow(D4) -- process-wide log verbosity; never read by
// simulation logic, so it cannot perturb results
std::atomic<LogLevel> g_level{LogLevel::normal};

/** Innermost ScopedLogLevel override on this thread, if any. */
// cais-lint: allow(D4) -- thread-local by design: per-run override so
// parallel sweep jobs do not race on the global level (PR 1)
thread_local LogLevel t_level = LogLevel::normal;
// cais-lint: allow(D4) -- companion flag of t_level, same rationale
thread_local bool t_levelActive = false;
} // namespace

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    if (t_levelActive)
        return t_level;
    return g_level.load(std::memory_order_relaxed);
}

ScopedLogLevel::ScopedLogLevel(LogLevel level)
    : prev(t_level), prevActive(t_levelActive)
{
    t_level = level;
    t_levelActive = true;
}

ScopedLogLevel::~ScopedLogLevel()
{
    t_level = prev;
    t_levelActive = prevActive;
}

std::string
vstrfmt(const char *fmt, std::va_list ap)
{
    // One pass into a stack buffer; only an output that does not fit
    // is formatted again, straight into the string.
    char buf[256];
    std::va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    std::string s;
    if (n > 0 && static_cast<std::size_t>(n) < sizeof(buf)) {
        s.assign(buf, static_cast<std::size_t>(n));
    } else if (n > 0) {
        s.resize(static_cast<std::size_t>(n));
        std::vsnprintf(s.data(), s.size() + 1, fmt, ap2);
    }
    va_end(ap2);
    return s;
}

std::string
strfmt(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    return s;
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", s.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", s.c_str());
}

void
inform(const char *fmt, ...)
{
    if (logLevel() == LogLevel::quiet)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stdout, "info: %s\n", s.c_str());
}

void
informVerbose(const char *fmt, ...)
{
    if (logLevel() != LogLevel::verbose)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stdout, "debug: %s\n", s.c_str());
}

} // namespace cais

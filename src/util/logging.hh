/**
 * @file
 * Status-message and error helpers in the spirit of gem5's logging.hh.
 *
 * panic()  -- an internal invariant was violated (simulator bug); aborts.
 * fatal()  -- the user asked for something unsupportable (bad config);
 *             exits with an error code.
 */

#ifndef CONOPT_UTIL_LOGGING_HH
#define CONOPT_UTIL_LOGGING_HH

#include <cstdarg>
#include <string>

namespace conopt {

/** Print a formatted message and abort(); use for simulator bugs. */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

/** Print a formatted message and exit(1); use for user errors. */
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

} // namespace conopt

#define conopt_panic(...) \
    ::conopt::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define conopt_fatal(...) \
    ::conopt::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/**
 * Invariant check that stays on in release builds. The simulator relies on
 * strict expression-and-value checking (paper section 4.2), so these checks
 * must not be compiled out.
 */
#define conopt_assert(cond, ...)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::conopt::panicImpl(__FILE__, __LINE__,                         \
                                "assertion failed: %s", #cond);            \
        }                                                                   \
    } while (0)

#endif // CONOPT_UTIL_LOGGING_HH

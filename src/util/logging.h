// Minimal leveled logging plus CHECK macros for programmer errors.
//
// CHECK-class macros abort the process and are reserved for invariants whose
// violation indicates a bug in the calling code (e.g. tensor shape
// mismatches). Data-dependent failures must go through Status instead.
#ifndef SMGCN_UTIL_LOGGING_H_
#define SMGCN_UTIL_LOGGING_H_

#include <functional>
#include <sstream>
#include <string>

namespace smgcn {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// Process-wide minimum level; messages below it are dropped.
void SetMinLogLevel(LogLevel level);
LogLevel GetMinLogLevel();

/// Destination for formatted log lines: receives the level and the full
/// "[LEVEL file:line] message" line without a trailing newline. Invocations
/// are serialised under an internal mutex, so a sink needs no locking of
/// its own, but it must not log (that would deadlock).
using LogSink = std::function<void(LogLevel, const std::string& line)>;

/// Replaces the process-wide log destination (default: stderr). Passing a
/// null sink restores the stderr default. FATAL lines are always written to
/// stderr as well, before aborting, so a crashing process leaves a trace
/// even when a test sink is installed. Every emitted line also increments
/// the obs registry counter `log.messages`, and lines at kError or above
/// increment `log.errors_logged`.
void SetLogSink(LogSink sink);

namespace internal {

/// Stream-style log message; emits on destruction. FATAL aborts.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the log level is disabled.
struct LogMessageVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace smgcn

#define SMGCN_LOG_INTERNAL(level) \
  ::smgcn::internal::LogMessage(level, __FILE__, __LINE__).stream()

#define LOG_DEBUG SMGCN_LOG_INTERNAL(::smgcn::LogLevel::kDebug)
#define LOG_INFO SMGCN_LOG_INTERNAL(::smgcn::LogLevel::kInfo)
#define LOG_WARNING SMGCN_LOG_INTERNAL(::smgcn::LogLevel::kWarning)
#define LOG_ERROR SMGCN_LOG_INTERNAL(::smgcn::LogLevel::kError)
#define LOG_FATAL SMGCN_LOG_INTERNAL(::smgcn::LogLevel::kFatal)

#define SMGCN_CHECK(cond)                                     \
  (cond) ? (void)0                                            \
         : ::smgcn::internal::LogMessageVoidify() &           \
               LOG_FATAL << "Check failed: " #cond " "

#define SMGCN_CHECK_OP(a, b, op)                                        \
  SMGCN_CHECK((a)op(b)) << "(" << (a) << " vs " << (b) << ") "

#define SMGCN_CHECK_EQ(a, b) SMGCN_CHECK_OP(a, b, ==)
#define SMGCN_CHECK_NE(a, b) SMGCN_CHECK_OP(a, b, !=)
#define SMGCN_CHECK_LT(a, b) SMGCN_CHECK_OP(a, b, <)
#define SMGCN_CHECK_LE(a, b) SMGCN_CHECK_OP(a, b, <=)
#define SMGCN_CHECK_GT(a, b) SMGCN_CHECK_OP(a, b, >)
#define SMGCN_CHECK_GE(a, b) SMGCN_CHECK_OP(a, b, >=)

/// Aborts when a Status-returning expression fails. For use in examples,
/// benches and tests where the error is unrecoverable.
#define SMGCN_CHECK_OK(expr)                                 \
  do {                                                       \
    ::smgcn::Status _s = (expr);                             \
    SMGCN_CHECK(_s.ok()) << _s.ToString();                   \
  } while (false)

#endif  // SMGCN_UTIL_LOGGING_H_

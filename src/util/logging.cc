#include "src/util/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#include "src/obs/registry.h"

namespace smgcn {
namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

std::mutex& SinkMutex() {
  static std::mutex mu;
  return mu;
}

LogSink& SinkHolder() {  // guarded by SinkMutex()
  static LogSink sink;
  return sink;
}

struct LogCounters {
  obs::Counter* messages;       // log.messages
  obs::Counter* errors_logged;  // log.errors_logged
};

LogCounters& Counters() {
  static LogCounters counters = [] {
    obs::Registry& reg = obs::Registry::Global();
    return LogCounters{reg.GetCounter("log.messages"),
                       reg.GetCounter("log.errors_logged")};
  }();
  return counters;
}

}  // namespace

void SetLogSink(LogSink sink) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  SinkHolder() = std::move(sink);
}

void SetMinLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetMinLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  const bool enabled =
      static_cast<int>(level_) >= g_min_level.load(std::memory_order_relaxed);
  if (enabled || level_ == LogLevel::kFatal) {
    Counters().messages->Increment();
    if (level_ >= LogLevel::kError) Counters().errors_logged->Increment();
    const std::string line = stream_.str();
    std::lock_guard<std::mutex> lock(SinkMutex());
    const LogSink& sink = SinkHolder();
    if (sink) sink(level_, line);
    // FATAL always reaches stderr so a crash leaves a trace even when a
    // test sink swallows the line.
    if (!sink || level_ == LogLevel::kFatal) {
      std::fprintf(stderr, "%s\n", line.c_str());
      std::fflush(stderr);
    }
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal
}  // namespace smgcn

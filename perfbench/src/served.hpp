#pragma once

// The serve path: the real unsnapd binary as a child process, started
// with its default options, driven through serve::Client.

#include <string>
#include <sys/types.h>

#include "util/json_parse.hpp"

namespace perfbench {

/// An unsnapd child listening on a Unix socket. The destructor asks it to
/// shut down and waits for it; the child also dies with this process.
class Daemon {
 public:
  Daemon(const std::string& binary, std::string socket_path,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Block until the daemon answers ping (throws after `timeout_s`).
  void wait_ready(double timeout_s) const;
  /// The daemon's `stats` envelope.
  [[nodiscard]] unsnap::util::JsonValue stats() const;
  /// Peak resident memory of the daemon process so far, in MB.
  [[nodiscard]] double peak_rss_mb() const;
  /// Shut down and reap; returns the exit status (idempotent).
  int stop();

  [[nodiscard]] const std::string& socket_path() const { return socket_; }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  int status_ = 0;
};

/// One closed-loop submission over its own connection: connect, submit,
/// await_terminal, fetch the result, close.
struct Submission {
  double first_reply_s = 0.0;  // connect -> submit reply
  double latency_s = 0.0;      // submit reply -> await_terminal returns
  double wall_s = 0.0;         // deck text in -> record JSON received
  double queued_s = 0.0;       // daemon-side queue wait
  double run_s = 0.0;          // daemon-side run time
  bool done = false;           // terminal state was Done
  bool cache_hit = false;
  unsnap::util::JsonValue record;  // the served RunRecord
};

[[nodiscard]] Submission submit(const std::string& socket_path,
                                const std::string& deck_text);

}  // namespace perfbench

#include "served.hpp"

#include <chrono>
#include <csignal>
#include <fcntl.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "measure.hpp"
#include "serve/client.hpp"

namespace perfbench {

Daemon::Daemon(const std::string& binary, std::string socket_path,
               const std::string& log_path)
    : socket_(std::move(socket_path)) {
  const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log < 0) throw std::runtime_error("cannot open " + log_path);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // Die with the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    ::close(log);
    ::execl(binary.c_str(), binary.c_str(), "--socket", socket_.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(log);
}

Daemon::~Daemon() {
  try {
    stop();
  } catch (...) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

void Daemon::wait_ready(double timeout_s) const {
  const Clock::time_point t0 = Clock::now();
  while (true) {
    try {
      unsnap::serve::Client client =
          unsnap::serve::Client::connect_unix(socket_);
      if (client.ping()) return;
    } catch (const std::exception&) {
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_)
      throw std::runtime_error("unsnapd exited during start-up");
    if (seconds_between(t0, Clock::now()) > timeout_s)
      throw std::runtime_error("unsnapd did not answer ping");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

unsnap::util::JsonValue Daemon::stats() const {
  return unsnap::serve::Client::connect_unix(socket_).stats();
}

double Daemon::peak_rss_mb() const { return perfbench::peak_rss_mb(pid_); }

int Daemon::stop() {
  if (pid_ <= 0) return status_;
  try {
    unsnap::serve::Client::connect_unix(socket_).shutdown_server();
  } catch (const std::exception&) {
    ::kill(pid_, SIGTERM);
  }
  // Running jobs finish first; give them a bounded grace period.
  const Clock::time_point t0 = Clock::now();
  while (::waitpid(pid_, &status_, WNOHANG) == 0) {
    if (seconds_between(t0, Clock::now()) > 30.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status_, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  ::unlink(socket_.c_str());
  return status_;
}

Submission submit(const std::string& socket_path,
                  const std::string& deck_text) {
  Submission s;
  const Clock::time_point t0 = Clock::now();
  unsnap::serve::Client client =
      unsnap::serve::Client::connect_unix(socket_path);
  const Clock::time_point t_connected = Clock::now();
  const std::string id = client.submit(deck_text);
  const Clock::time_point t_submitted = Clock::now();
  const unsnap::serve::RunState state = client.await_terminal(id);
  const Clock::time_point t_terminal = Clock::now();
  unsnap::util::JsonValue envelope = client.result(id);
  const Clock::time_point t_result = Clock::now();

  s.first_reply_s = seconds_between(t_connected, t_submitted);
  s.latency_s = seconds_between(t_submitted, t_terminal);
  s.wall_s = seconds_between(t0, t_result);
  s.queued_s = envelope.get_number("queued_seconds");
  s.run_s = envelope.get_number("run_seconds");
  s.done = state == unsnap::serve::RunState::Done;
  s.cache_hit = envelope.get_bool("cache_hit");
  if (s.done) s.record = envelope.at("record");
  return s;
}

}  // namespace perfbench

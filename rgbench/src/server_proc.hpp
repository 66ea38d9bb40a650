// The server under test as a child process: examples/resp_server,
// started with its default THREAD_COUNT and GB_THREADS and only the
// flags a workload needs (data dir, fsync policy, replica-of).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace rgbench {

class ServerProc {
 public:
  /// Spawn `binary args... --port 0`, with stdout/stderr appended to
  /// `log_path`, and block until it reports its listening port (throws
  /// after `timeout_s`).
  ServerProc(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, double timeout_s = 60.0);
  ~ServerProc();

  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  std::uint16_t port() const { return port_; }
  /// CPU time the server has used so far (user + system, all threads),
  /// in seconds.  On a virtual machine this leaves out the time the
  /// hypervisor gave to other guests.
  double cpu_seconds() const;

  /// Kill the server and wait until it has exited.  Idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace rgbench

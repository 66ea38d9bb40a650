#include "server_proc.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace rgbench {

namespace {

bool wait_exit(pid_t pid, double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

double ServerProc::cpu_seconds() const {
  // /proc/<pid>/stat: "pid (comm) state ..." with utime and stime the
  // 14th and 15th fields; comm may hold spaces, so count from its ')'.
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(in, line);
  const auto close = line.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("cannot read the server's CPU time");
  std::istringstream fields(line.substr(close + 2));
  std::string f;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> f; ++i) {
    if (i == 14) utime = std::stod(f);
    if (i == 15) stime = std::stod(f);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

ServerProc::ServerProc(const std::string& binary,
                       const std::vector<std::string>& args,
                       const std::string& log_path, double timeout_s) {
  int in_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));

  std::vector<std::string> full = {binary};
  full.insert(full.end(), args.begin(), args.end());
  full.push_back("--port");
  full.push_back("0");
  std::vector<char*> cargv;
  for (auto& a : full) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  // Truncate the log: the port is read back from the fresh content.
  { std::ofstream(log_path, std::ios::trunc); }

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, in_pipe[0], 0);
  posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                   O_WRONLY | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  // No benchmark socket may leak into the server: an inherited client
  // fd would keep that connection open after the benchmark closes it.
  posix_spawn_file_actions_addclosefrom_np(&fa, 3);
  const int rc =
      ::posix_spawn(&pid_, binary.c_str(), &fa, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(in_pipe[0]);
  if (rc != 0) {
    ::close(in_pipe[1]);
    throw std::runtime_error("spawn " + binary + ": " + std::strerror(rc));
  }
  stdin_fd_ = in_pipe[1];

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  static const std::string kTag = "listening on ";
  for (;;) {
    std::ifstream in(log_path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const std::size_t at = text.find(kTag);
    if (at != std::string::npos) {
      const std::size_t colon = text.find(':', at + kTag.size());
      const std::size_t end = text.find(' ', colon);
      if (colon != std::string::npos && end != std::string::npos) {
        port_ = static_cast<std::uint16_t>(
            std::stoul(text.substr(colon + 1, end - colon - 1)));
        return;
      }
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      stop();
      throw std::runtime_error("server exited during start-up; see " +
                               log_path);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      stop();
      throw std::runtime_error("server did not report a port; see " +
                               log_path);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

ServerProc::~ServerProc() { stop(); }

void ServerProc::stop() {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  if (pid_ <= 0) return;
  // Nothing a server holds outlives the run (its data directory is
  // temporary), so it is killed rather than left to finish queued work.
  ::kill(pid_, SIGKILL);
  wait_exit(pid_, 10.0);
  pid_ = -1;
}

}  // namespace rgbench

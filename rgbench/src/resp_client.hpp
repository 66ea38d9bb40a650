// Blocking RESP client for set-up, admin reads and the closed-loop
// confirmed-write stream, plus helpers that read the server's
// name/value tables (GRAPH.INFO, GRAPH.CONFIG GET, GRAPH.MEMORY USAGE).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "server/resp.hpp"
#include "util/socket.hpp"

namespace rgbench {

using rg::server::RespValue;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class RespConn {
 public:
  /// Connect to 127.0.0.1:`port`; throws std::runtime_error on failure.
  static RespConn connect(std::uint16_t port);

  /// Send one command and block for its reply.  I/O errors throw.
  RespValue call(const std::vector<std::string>& argv);
  /// Same, with the request already RESP-encoded.
  RespValue call_wire(const std::string& wire);

  int fd() const { return stream_.native_handle(); }

 private:
  explicit RespConn(rg::util::TcpStream s) : stream_(std::move(s)) {}
  rg::util::TcpStream stream_;
  std::string buf_;
};

/// rows[0][0] of a GRAPH.QUERY result as an integer, if it is one.
std::optional<long long> scalar_result(const RespValue& reply);

/// A two-column (name, value) result table as strings.
std::map<std::string, std::string> name_values(const RespValue& reply);

/// Integer value of one row of a name/value table (0 when absent).
long long nv_int(const std::map<std::string, std::string>& nv,
                 const std::string& name);

/// "a=1,b=2" -> {a:1, b:2} (GRAPH.INFO replica rows).
std::map<std::string, long long> parse_kv_list(const std::string& s);

/// Short human-readable rendering of a reply (diagnostics only).
std::string describe(const RespValue& v);

}  // namespace rgbench

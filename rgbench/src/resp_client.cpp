#include "resp_client.hpp"

#include <stdexcept>

namespace rgbench {

RespConn RespConn::connect(std::uint16_t port) {
  return RespConn(rg::util::TcpStream::connect("127.0.0.1", port));
}

RespValue RespConn::call(const std::vector<std::string>& argv) {
  return call_wire(rg::server::encode_command(argv));
}

RespValue RespConn::call_wire(const std::string& wire) {
  stream_.write_all(wire);
  char chunk[65536];
  for (;;) {
    if (!buf_.empty()) {
      RespValue v;
      const std::size_t used = rg::server::decode_reply(buf_, v);
      if (used != 0) {
        buf_.erase(0, used);
        return v;
      }
    }
    const std::size_t got = stream_.read_some(chunk, sizeof(chunk));
    if (got == 0) throw std::runtime_error("server closed the connection");
    buf_.append(chunk, got);
  }
}

std::optional<long long> scalar_result(const RespValue& reply) {
  if (reply.kind != RespValue::Kind::kArray || reply.elems.size() < 2)
    return std::nullopt;
  const RespValue& rows = reply.elems[1];
  if (rows.kind != RespValue::Kind::kArray || rows.elems.empty())
    return std::nullopt;
  const RespValue& row = rows.elems[0];
  if (row.kind != RespValue::Kind::kArray || row.elems.empty() ||
      row.elems[0].kind != RespValue::Kind::kInteger)
    return std::nullopt;
  return row.elems[0].integer;
}

std::map<std::string, std::string> name_values(const RespValue& reply) {
  std::map<std::string, std::string> out;
  if (reply.kind != RespValue::Kind::kArray || reply.elems.size() < 2)
    return out;
  for (const RespValue& row : reply.elems[1].elems) {
    if (row.elems.size() < 2) continue;
    const RespValue& v = row.elems[1];
    out[row.elems[0].text] =
        v.kind == RespValue::Kind::kInteger ? std::to_string(v.integer) : v.text;
  }
  return out;
}

long long nv_int(const std::map<std::string, std::string>& nv,
                 const std::string& name) {
  const auto it = nv.find(name);
  if (it == nv.end()) return 0;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    return 0;
  }
}

std::map<std::string, long long> parse_kv_list(const std::string& s) {
  std::map<std::string, long long> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string item =
        s.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t eq = item.find('=');
    if (eq != std::string::npos) {
      try {
        out[item.substr(0, eq)] = std::stoll(item.substr(eq + 1));
      } catch (const std::exception&) {
      }
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::string describe(const RespValue& v) {
  switch (v.kind) {
    case RespValue::Kind::kSimple: return "+" + v.text;
    case RespValue::Kind::kError: return "-" + v.text;
    case RespValue::Kind::kInteger: return ":" + std::to_string(v.integer);
    case RespValue::Kind::kBulk: return "$" + v.text.substr(0, 80);
    case RespValue::Kind::kNull: return "(nil)";
    case RespValue::Kind::kArray: {
      std::string s = "[";
      for (std::size_t i = 0; i < v.elems.size() && i < 4; ++i) {
        if (i) s += ", ";
        s += describe(v.elems[i]);
      }
      if (v.elems.size() > 4) s += ", ...";
      return s + "]";
    }
  }
  return "?";
}

}  // namespace rgbench

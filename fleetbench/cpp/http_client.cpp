#include "http_client.h"

#include <poll.h>

#include <cctype>
#include <charconv>
#include <chrono>
#include <optional>
#include <utility>
#include <thread>

#include "analysis/json.h"

namespace fleetbench {

namespace net = agrarsec::net;
using agrarsec::analysis::Json;

namespace {

constexpr int kTimeoutMs = 2000;

/// Case-insensitive search for a header line "name: value" inside `head`.
std::optional<std::string> header_value(const std::string& head, std::string_view name) {
  std::size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    const std::size_t line = pos + 2;
    const std::size_t end = head.find("\r\n", line);
    const std::size_t colon = head.find(':', line);
    if (colon != std::string::npos && (end == std::string::npos || colon < end) &&
        colon - line == name.size()) {
      bool same = true;
      for (std::size_t i = 0; i < name.size(); ++i) {
        same = same && std::tolower(static_cast<unsigned char>(head[line + i])) ==
                           std::tolower(static_cast<unsigned char>(name[i]));
      }
      if (same) {
        std::size_t v = colon + 1;
        while (v < head.size() && head[v] == ' ') ++v;
        return head.substr(v, (end == std::string::npos ? head.size() : end) - v);
      }
    }
    pos = end;
  }
  return std::nullopt;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool KeepAlive::send_get(const std::string& target) {
  if (sent_ >= kRequestsPerConnection) stream_.close();
  if (!stream_.valid()) {
    stream_ = net::TcpStream::connect_local(port_, kTimeoutMs);
    buf_.clear();
    sent_ = 0;
    if (!stream_.valid()) return false;
    ++connects_;
  }
  ++sent_;
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\r\n";
  const bool sent = stream_.write_all(request, kTimeoutMs);
  if (!sent) stream_.close();
  return sent;
}

bool KeepAlive::receive(std::string& body, int timeout_ms) {
  body.clear();
  std::uint8_t chunk[16384];
  std::size_t head_end = std::string::npos;
  std::size_t length = 0;
  bool have_length = false;
  bool close_after = false;
  bool ok = false;
  while (stream_.valid()) {
    if (head_end == std::string::npos) {
      head_end = buf_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::string head = buf_.substr(0, head_end);
        ok = head.rfind("HTTP/1.1 200 ", 0) == 0;
        const auto len = header_value(head, "Content-Length");
        have_length = len && std::from_chars(len->data(), len->data() + len->size(), length).ec ==
                                 std::errc{};
        const auto conn = header_value(head, "Connection");
        close_after = conn && (*conn == "close" || *conn == "Close");
        head_end += 4;
      }
    }
    if (head_end != std::string::npos && have_length && buf_.size() >= head_end + length) {
      body = buf_.substr(head_end, length);
      buf_.erase(0, head_end + length);
      if (close_after) stream_.close();
      return ok;
    }
    if (head_end != std::string::npos && !have_length) break;  // not well-framed
    const long n = stream_.read_some(chunk, sizeof chunk, timeout_ms);
    if (n <= 0) break;
    buf_.append(reinterpret_cast<const char*>(chunk), static_cast<std::size_t>(n));
  }
  stream_.close();
  return false;
}

OpenLoopClient::OpenLoopClient(std::uint16_t port, const std::vector<ConsoleRequest>& mix,
                               std::vector<std::uint64_t> session_ids)
    : mix_(mix), session_ids_(std::move(session_ids)), conns_{KeepAlive(port), KeepAlive(port)} {}

std::string OpenLoopClient::target(const ConsoleRequest& request) const {
  switch (request.route) {
    case ConsoleRequest::Route::kSessions:
      return "/sessions";
    case ConsoleRequest::Route::kMetrics:
      return "/metrics";
    case ConsoleRequest::Route::kIds:
      return "/ids";
    case ConsoleRequest::Route::kFlight: {
      const auto it = cursors_.find(request.site);
      return "/flight/" + std::to_string(session_ids_.at(request.site)) +
             "?cursor=" + std::to_string(it == cursors_.end() ? 0 : it->second);
    }
  }
  return "/";
}

// Reads connection c's response. A flight poll must carry the session's
// next cursor, which the next poll of that site resumes from.
bool OpenLoopClient::finish(int c) {
  RequestRecord& r = records_[static_cast<std::size_t>(in_flight_[c])];
  in_flight_[c] = -1;
  r.ok = conns_[c].receive(body_, kTimeoutMs);
  r.done_ns = now_ns();
  r.bytes = static_cast<std::uint32_t>(body_.size());
  if (!r.ok) return false;
  const std::optional<Json> json = Json::parse(body_);
  r.ok = json.has_value();
  if (r.ok && r.route == ConsoleRequest::Route::kFlight) {
    const Json* next = json->find("next_cursor");
    const Json* session = json->find("session");
    r.ok = next != nullptr && session != nullptr;
    for (std::size_t s = 0; r.ok && s < session_ids_.size(); ++s) {
      if (static_cast<double>(session_ids_[s]) == session->as_number()) {
        cursors_[s] = static_cast<std::uint64_t>(next->as_number());
      }
    }
  }
  return r.ok;
}

std::uint32_t OpenLoopClient::collect_until(std::int64_t deadline_ns) {
  std::uint32_t completed = 0;
  for (std::int64_t now = now_ns(); now < deadline_ns; now = now_ns()) {
    pollfd fds[2];
    int which[2];
    nfds_t n = 0;
    for (int c = 0; c < 2; ++c) {
      if (in_flight_[c] < 0) continue;
      fds[n] = pollfd{conns_[c].fd(), POLLIN, 0};
      which[n++] = c;
    }
    const std::int64_t wait = deadline_ns - now;
    if (n == 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      break;
    }
    const timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                           static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(fds, n, &timeout, nullptr) <= 0) continue;
    for (nfds_t i = 0; i < n; ++i) {
      if (fds[i].revents != 0) completed += finish(which[i]) ? 1 : 0;
    }
  }
  return completed;
}

OpenLoopClient::StageRun OpenLoopClient::run(const Stage& stage, std::uint32_t stage_index,
                                             std::int64_t give_up_ns) {
  const bool saturate = stage.kind == Stage::Kind::kSaturate;
  const bool serial = stage.kind == Stage::Kind::kSerial;
  StageRun run;
  run.start_ns = now_ns() + 1'000'000;
  const auto deadline = run.start_ns + static_cast<std::int64_t>(stage.max_seconds * 1e9);
  for (std::uint32_t k = 0;; ++k) {
    if (saturate ? now_ns() >= deadline : k >= stage.count) break;
    if (!saturate && !serial) {
      const std::int64_t due =
          run.start_ns + static_cast<std::int64_t>(static_cast<double>(k) * 1e9 / stage.rate);
      const std::int64_t now = now_ns();
      if (now < due) {
        run.completed += collect_until(due);
      } else if (now - due > give_up_ns) {
        run.gave_up = true;
        break;
      }
    }
    const int c = serial ? 0 : static_cast<int>(k % 2);
    if (in_flight_[c] >= 0) run.completed += finish(c) ? 1 : 0;
    const ConsoleRequest& request = mix_[mix_pos_++ % mix_.size()];
    RequestRecord r;
    r.stage = stage_index;
    r.index = k;
    r.route = request.route;
    r.sent_ns = now_ns();
    records_.push_back(r);
    ++run.sent;
    if (conns_[c].send_get(target(request))) {
      in_flight_[c] = static_cast<std::int64_t>(records_.size()) - 1;
    } else {
      records_.back().done_ns = now_ns();
    }
  }
  for (int c = 0; c < 2; ++c) {
    if (in_flight_[c] >= 0) run.completed += finish(c) ? 1 : 0;
  }
  run.end_ns = now_ns();
  return run;
}

}  // namespace fleetbench

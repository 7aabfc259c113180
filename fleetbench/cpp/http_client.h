// Open-loop HTTP client for the console's read plane. One generator thread
// sends GETs on a fixed schedule over two keep-alive connections (at most
// one request in flight on each), so a stall in the server delays later
// requests instead of thinning the load. Every request records when it was
// sent and answered, and every stage when its schedule started; the
// analysis (fleetbench/analysis.py) derives due time, latency from the due
// time, lateness and backlog from those stamps.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/stream.h"
#include "workload.h"

namespace fleetbench {

/// One stage of the schedule. A fixed-rate stage sends request k at stage
/// start + k / rate. A saturating stage sends whenever a connection is free
/// for `max_seconds`, which measures the throughput the console sustains. A
/// serial stage sends `count` requests back to back on one connection, each
/// after the previous answer: the round trip of a console kept busy.
struct Stage {
  enum class Kind : std::uint8_t { kReference, kSaturate, kVerify, kSerial } kind;
  double rate = 0.0;        ///< requests per second (fixed-rate stages)
  std::uint32_t count = 0;  ///< requests scheduled (fixed-rate stages)
  double max_seconds = 0;   ///< duration (saturating stage)
};

struct RequestRecord {
  std::uint32_t stage = 0;
  std::uint32_t index = 0;  ///< k within the stage
  ConsoleRequest::Route route = ConsoleRequest::Route::kSessions;
  bool ok = false;          ///< well-framed 200 whose body parses as JSON
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  std::uint32_t bytes = 0;
};

/// A keep-alive connection that reconnects when the server closes it. The
/// console closes a connection after its 128th response without announcing
/// it, so the client opens a fresh one before sending request 129.
class KeepAlive {
 public:
  static constexpr int kRequestsPerConnection = 128;

  explicit KeepAlive(std::uint16_t port) : port_(port) {}
  bool send_get(const std::string& target);
  /// Reads one response. ok = well-framed "200" with a Content-Length body.
  bool receive(std::string& body, int timeout_ms);
  [[nodiscard]] std::uint64_t connects() const { return connects_; }
  [[nodiscard]] int fd() const { return stream_.fd(); }

 private:
  std::uint16_t port_;
  agrarsec::net::TcpStream stream_;
  std::string buf_;
  int sent_ = 0;  ///< requests sent on the current connection
  std::uint64_t connects_ = 0;
};

class OpenLoopClient {
 public:
  OpenLoopClient(std::uint16_t port, const std::vector<ConsoleRequest>& mix,
                 std::vector<std::uint64_t> session_ids);

  struct StageRun {
    std::int64_t start_ns = 0;  ///< schedule origin (request k due at start + k/rate)
    std::int64_t end_ns = 0;
    std::uint32_t sent = 0;
    std::uint32_t completed = 0;
    bool gave_up = false;       ///< fell more than give_up_ns behind schedule
  };

  /// Runs one stage, then collects the answers. A fixed-rate stage stops
  /// sending once the generator is more than `give_up_ns` late. Records
  /// carry `stage_index`.
  StageRun run(const Stage& stage, std::uint32_t stage_index, std::int64_t give_up_ns);

  [[nodiscard]] std::vector<RequestRecord>& records() { return records_; }
  [[nodiscard]] std::uint64_t connects() const {
    return conns_[0].connects() + conns_[1].connects();
  }

 private:
  std::string target(const ConsoleRequest& request) const;
  bool finish(int c);
  /// Until `deadline_ns`, reads every response as soon as it arrives (so an
  /// answer is stamped when it lands, not when its connection is next used).
  /// Returns the number of requests completed ok.
  std::uint32_t collect_until(std::int64_t deadline_ns);

  const std::vector<ConsoleRequest>& mix_;
  std::vector<std::uint64_t> session_ids_;
  KeepAlive conns_[2];
  std::int64_t in_flight_[2] = {-1, -1};  ///< record index per connection
  std::map<std::size_t, std::uint64_t> cursors_;  ///< next flight cursor per site
  std::vector<RequestRecord> records_;
  std::string body_;
  std::size_t mix_pos_ = 0;
};

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t now_ns();

}  // namespace fleetbench

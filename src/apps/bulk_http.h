// Bulk-transfer applications over TCP — the reproduction of the paper's
// test workload: "a large HTTP download with Apache or IIS running on the
// servers and wget for clients".
//
// The server streams a large response; the client counts received bytes.
// The client can be told to exit abruptly mid-download (app_exit), modeling
// wget being terminated while data is in flight — the precondition for the
// CLOSE_WAIT Resource Exhaustion attack.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "apps/shared_states.h"
#include "tcp/stack.h"
#include "util/time.h"

namespace snake::apps {

/// HTTP-like bulk server. Accepts connections on `port` and streams
/// `response_bytes` to each, topping up the socket's send buffer from a
/// periodic pump so memory stays bounded, then closes. Also closes its end
/// when the remote closes first.
class BulkHttpServer {
 public:
  BulkHttpServer(tcp::TcpStack& stack, std::uint16_t port, std::uint64_t response_bytes);

  std::uint64_t connections_accepted() const { return conns_.size(); }

  /// Pump state of one accepted connection.
  struct PerConnection {
    std::uint64_t queued = 0;  ///< bytes handed to the socket so far
    bool closed = false;
  };

  /// The server's whole mutable state is its per-connection registry.
  using Snapshot = SharedStates<PerConnection>::Snapshot;
  Snapshot capture() const { return conns_.capture(); }
  void restore(const Snapshot& snap) { conns_.restore(snap); }

 private:
  void pump(tcp::TcpEndpoint* endpoint, std::shared_ptr<PerConnection> state);

  tcp::TcpStack& stack_;
  std::uint64_t response_bytes_;
  /// Every PerConnection ever created, in accept order — the snapshot layer's
  /// handle on pump state otherwise reachable only through closures.
  SharedStates<PerConnection> conns_;
  /// Reused pump chunk. send() copies it into the socket's buffer, so the
  /// only live state is inside one pump call; reusing the storage keeps the
  /// per-pump cost at one pattern fill instead of alloc + zero-init + fill.
  Bytes chunk_scratch_;

  static constexpr std::size_t kChunk = 64 * 1024;       ///< send-buffer top-up target
  static constexpr Duration kPumpInterval = Duration::millis(10);
};

/// Mutable BulkHttpClient state; its snapshot is a copy of this struct (the
/// endpoint pointer is session-stable).
struct BulkHttpClientState {
  std::uint64_t bytes_received_ = 0;
  bool established_ = false;
  bool reset_ = false;
};

/// HTTP-like bulk client (wget). Connects at construction.
class BulkHttpClient : private BulkHttpClientState {
 public:
  /// If `exit_after` is set, the client application exits abruptly that long
  /// after connecting (see TcpEndpoint::app_exit).
  BulkHttpClient(tcp::TcpStack& stack, sim::Address server, std::uint16_t port,
                 std::optional<Duration> exit_after = std::nullopt);

  std::uint64_t bytes_received() const { return bytes_received_; }
  bool established() const { return established_; }
  bool reset() const { return reset_; }
  tcp::TcpEndpoint& endpoint() { return *endpoint_; }

  using State = BulkHttpClientState;
  State capture() const { return *this; }
  void restore(const State& state) { State::operator=(state); }

 private:
  tcp::TcpEndpoint* endpoint_ = nullptr;
};

}  // namespace snake::apps

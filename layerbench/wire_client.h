// A minimal blocking client for the net/protocol.h frame protocol over
// one loopback TCP connection: the benchmark's entrance to the net
// layer. One thread sends, another reads; neither call locks.
#ifndef LAYERBENCH_WIRE_CLIENT_H_
#define LAYERBENCH_WIRE_CLIENT_H_

#include <cstdint>
#include <vector>

#include "net/protocol.h"
#include "util/status.h"

namespace layerbench {

class WireClient {
 public:
  WireClient() = default;
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connects to 127.0.0.1:`port` with TCP_NODELAY.
  parisax::Status Connect(uint16_t port);
  /// Writes one whole encoded frame.
  parisax::Status Send(const std::vector<uint8_t>& frame);
  /// Reads one frame; `body` receives its body bytes.
  parisax::Result<parisax::FrameHeader> Read(std::vector<uint8_t>* body);
  /// Shuts the connection down so a blocked Read returns.
  void Shutdown();

 private:
  parisax::Status ReadFull(uint8_t* buf, size_t n);

  int fd_ = -1;
};

}  // namespace layerbench

#endif  // LAYERBENCH_WIRE_CLIENT_H_
